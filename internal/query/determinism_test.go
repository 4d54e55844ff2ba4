package query

import (
	"fmt"
	"strings"
	"testing"

	"a1/internal/core"
	"a1/internal/fabric"
)

// JSON objects decode to Go maps, whose iteration order changes run to
// run; the parser and binder therefore impose sorted field order
// themselves (enforced by a1/maporder). These tests lock the guarantee
// in: repeated parses yield identical predicate order (which feeds index
// selection tie-breaks and plan structure), error messages name the same
// offender every time, and unordered _groupby results come back in one
// canonical order.

func TestParsePredicateOrderDeterministic(t *testing.T) {
	doc := []byte(`{"_type": "product", "zeta": 1, "alpha": {"_gt": 2, "_lt": 9}, "mid": "x", "beta": 3}`)
	first, err := Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	// Predicates appear in sorted field order, multi-operator fields in
	// sorted operator order — never in map iteration order.
	var paths []string
	for _, p := range first.Root.Preds {
		paths = append(paths, p.Path.Raw)
	}
	if got, want := strings.Join(paths, ","), "alpha,alpha,beta,mid,zeta"; got != want {
		t.Fatalf("predicate order = %s, want %s", got, want)
	}
	want := fmt.Sprintf("%v", first.Root.Preds)
	for i := 0; i < 50; i++ {
		q, err := Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%v", q.Root.Preds); got != want {
			t.Fatalf("parse %d: predicate order changed:\n got %s\nwant %s", i, got, want)
		}
	}
}

func TestParseErrorDeterministic(t *testing.T) {
	// Two unknown operators in one predicate object: the reported offender
	// must not depend on which map key is visited first.
	doc := []byte(`{"_type": "t", "f": {"_zz_bogus": 1, "_aa_bogus": 2}}`)
	_, err := Parse(doc)
	if err == nil {
		t.Fatal("expected parse error")
	}
	want := err.Error()
	if !strings.Contains(want, "_aa_bogus") {
		t.Fatalf("error should name the first unknown key in sorted order: %v", err)
	}
	for i := 0; i < 50; i++ {
		_, err := Parse(doc)
		if err == nil || err.Error() != want {
			t.Fatalf("parse %d: error message changed: %v, want %v", i, err, want)
		}
	}
}

func TestBindErrorDeterministic(t *testing.T) {
	q, err := Parse([]byte(`{"_type": "t", "f": {"_gt": "$p"}}`))
	if err != nil {
		t.Fatal(err)
	}
	// Several unknown parameters: validation runs in sorted name order, so
	// the same one is reported every time.
	params := Params{"p": 1, "x": 1, "b": 2, "m": 3}
	_, err = q.Bind(params)
	if err == nil {
		t.Fatal("expected bind error")
	}
	want := err.Error()
	if !strings.Contains(want, "$b") {
		t.Fatalf("bind error should name $b (first unknown in sorted order): %v", err)
	}
	for i := 0; i < 50; i++ {
		_, err := q.Bind(params)
		if err == nil || err.Error() != want {
			t.Fatalf("bind %d: error message changed: %v, want %v", i, err, want)
		}
	}
}

func TestGroupByOrderDeterministic(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	// No _orderby: group order is still canonical (sorted encoded keys),
	// identical on every execution — off the category index and off the
	// worker runs (the `_sum` doc) alike.
	for _, doc := range [][]byte{
		[]byte(`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`),
		[]byte(`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`),
	} {
		groupOrderDeterministic(t, e, g, c, doc)
	}
}

func groupOrderDeterministic(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc []byte) {
	t.Helper()
	res, err := e.Execute(c, g, doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 2 {
		t.Fatalf("groups = %d, want several", len(res.Groups))
	}
	var keys []string
	for _, gr := range res.Groups {
		keys = append(keys, gr.Keys["category"].AsString())
	}
	want := strings.Join(keys, ",")
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("group keys not in sorted order: %q before %q", keys[i-1], keys[i])
		}
	}
	for i := 0; i < 10; i++ {
		res, err := e.Execute(c, g, doc)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, gr := range res.Groups {
			got = append(got, gr.Keys["category"].AsString())
		}
		if strings.Join(got, ",") != want {
			t.Fatalf("run %d: group order changed", i)
		}
	}
}
