package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestTailQuantileLeavesTenSamples(t *testing.T) {
	if q := tailQuantile(1000); q != 0.99 {
		t.Fatalf("tailQuantile(1000) = %v, want 0.99", q)
	}
	for n := tailSamples + 1; n <= 5000; n++ {
		q := tailQuantile(n)
		if q > 0.99 {
			t.Fatalf("n=%d: q=%v above 0.99", n, q)
		}
		if beyond := n - rank(n, q); beyond < tailSamples {
			t.Fatalf("n=%d: q=%v leaves %d samples beyond, want >= %d", n, q, beyond, tailSamples)
		}
	}
	if q := tailQuantile(tailSamples); q != 0 {
		t.Fatalf("tailQuantile(%d) = %v, want 0", tailSamples, q)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 500}, {0.99, 990}, {1, 1000}, {0, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestZipfChooserDeterministic(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipfChooser(seed, 11000, 1.13)
		out := make([]int, 5000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	a, b, c := draw(42), draw(42), draw(43)
	same := 0
	counts := map[int]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs under one seed: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 11000 {
			t.Fatalf("draw %d out of range: %d", i, a[i])
		}
		if a[i] == c[i] {
			same++
		}
		counts[a[i]]++
	}
	if same == len(a) {
		t.Fatal("seeds 42 and 43 drew the same sequence")
	}
	for k, n := range counts {
		if n > counts[0] {
			t.Fatalf("rank %d drawn %d times, more than rank 0's %d", k, n, counts[0])
		}
	}
}

func TestDeckDealsExactShares(t *testing.T) {
	d := newDeck(rand.New(rand.NewSource(1)), 30, 17, 1, 1, 1)
	for round := 0; round < 3; round++ {
		got := make([]int, 5)
		for i := 0; i < 50; i++ {
			got[d.next()]++
		}
		for k, want := range []int{30, 17, 1, 1, 1} {
			if got[k] != want {
				t.Fatalf("round %d: kind %d dealt %d times, want %d", round, k, got[k], want)
			}
		}
	}
}

func TestSelfByLayerSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "frontend.tier", Start: 0, End: 40, Parent: 0},
		{Name: "core.lookup", Start: 40, End: 90, Parent: 0},
		{Name: "farm.tx_read", Start: 50, End: 70, Parent: 2},
	}
	got := selfByLayer(spans)
	want := map[string]time.Duration{"frontend": 40, "core": 30, "farm": 20}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("%s self time %v, want %v", layer, got[layer], d)
		}
	}
}
