package main

import (
	"math"
	"math/rand"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported percentile.
const tailSamples = 10

// tailQuantile returns the highest quantile up to 0.99 that leaves at
// least tailSamples of n samples beyond it: 0.99 from 1000 samples on,
// lower for shorter runs (0 when there are too few for any tail).
func tailQuantile(n int) float64 {
	if n <= tailSamples {
		return 0
	}
	return math.Min(0.99, float64(n-tailSamples)/float64(n))
}

// rank is the 1-based nearest rank of quantile q among n samples. The
// small slack keeps q = k/n from rounding up to k+1.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// percentile returns the nearest-rank q-quantile of xs (sorted in place).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.Float64sAreSorted(xs) {
		sort.Float64s(xs)
	}
	return xs[rank(len(xs), q)-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// zipfChooser draws ranks in [0, n) with Zipf skew s: rank 0 is the
// hottest. The same seed yields the same sequence.
type zipfChooser struct {
	z *rand.Zipf
}

func newZipfChooser(seed int64, n int, s float64) *zipfChooser {
	rng := rand.New(rand.NewSource(seed))
	return &zipfChooser{z: rand.NewZipf(rng, s, 1, uint64(n-1))}
}

func (z *zipfChooser) next() int { return int(z.z.Uint64()) }

// deck deals request kinds in exact proportions: each round shuffles
// counts[k] cards of kind k and deals them all before the next round, so
// a run's mix varies with the seed only in order, not in shares.
type deck struct {
	rng    *rand.Rand
	counts []int
	cards  []int
}

func newDeck(rng *rand.Rand, counts ...int) *deck {
	return &deck{rng: rng, counts: counts}
}

func (d *deck) next() int {
	if len(d.cards) == 0 {
		for k, n := range d.counts {
			for i := 0; i < n; i++ {
				d.cards = append(d.cards, k)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	k := d.cards[0]
	d.cards = d.cards[1:]
	return k
}

// ones returns n counts of one: a deck dealing each of n values once per
// round.
func ones(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = 1
	}
	return c
}
