package query

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Index-only grouping (IndexGroupScan): a whole-type `_groupby` count over
// one secondary-indexed field is answered from the index without reading
// a vertex. Every eligible shape must drain to exactly what a naive
// evaluation over the vertex data gives — groups, order, ties, key kinds,
// and the null group of vertices missing the field — and every ineligible
// shape must plan exactly as before.

// grpSchema: s (string), i (int32) and d (double) are secondary-indexed
// and sometimes missing; u is i's non-indexed twin, n a non-indexed
// number for `_sum`, m a map for map-path grouping.
var grpSchema = bond.MustSchema("grp",
	bond.FReq(0, "id", bond.TString),
	bond.F(1, "s", bond.TString),
	bond.F(2, "i", bond.TInt32),
	bond.F(3, "d", bond.TDouble),
	bond.F(4, "u", bond.TInt32),
	bond.F(5, "n", bond.TInt64),
	bond.F(6, "m", bond.TMapOf(bond.TString, bond.TString)),
)

// reqSchema's indexed group key is required: no null group exists.
var reqSchema = bond.MustSchema("req",
	bond.FReq(0, "id", bond.TString),
	bond.FReq(1, "k", bond.TString),
)

const grpItems = 120

// grpValue builds vertex i of the grp type. s has 23 keys plus the empty
// string, i 19 (negatives included), d 13; each is missing on its own
// residue class, so every field has a null group.
func grpValue(i int) bond.Value {
	fields := []bond.FieldValue{
		bond.FV(0, bond.String(fmt.Sprintf("g%03d", i))),
		bond.FV(4, bond.Int32(int32(i%19-9))),
		bond.FV(5, bond.Int64(int64(i))),
		bond.FV(6, bond.StringMap(map[string]string{"k": fmt.Sprintf("v%d", i%4)})),
	}
	switch {
	case i%11 == 0:
	case i%10 == 3:
		fields = append(fields, bond.FV(1, bond.String("")))
	default:
		fields = append(fields, bond.FV(1, bond.String(fmt.Sprintf("k%02d", i%23))))
	}
	if i%7 != 0 {
		fields = append(fields, bond.FV(2, bond.Int32(int32(i%19-9))))
	}
	if i%9 != 0 {
		fields = append(fields, bond.FV(3, bond.Double(float64(i%13)*1.5-6)))
	}
	return bond.Struct(fields...)
}

func newGroupIndexEnv(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
	t.Helper()
	fab := fabric.New(fabric.DefaultConfig(6, fabric.Direct), nil)
	f := farm.Open(fab, farm.Config{RegionSize: 16 << 20})
	c := fab.NewCtx(0, nil)
	s, err := core.Open(c, f, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTenant(c, "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateGraph(c, "t", "g"); err != nil {
		t.Fatal(err)
	}
	g, err := s.OpenGraph(c, "t", "g")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "grp", grpSchema, "id", "s", "i", "d"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateVertexType(c, "req", reqSchema, "id", "k"); err != nil {
		t.Fatal(err)
	}
	if err := g.CreateEdgeType(c, "link", nil); err != nil {
		t.Fatal(err)
	}
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		var ptrs []core.VertexPtr
		for i := 0; i < grpItems; i++ {
			vp, err := g.CreateVertex(tx, "grp", grpValue(i))
			if err != nil {
				return err
			}
			ptrs = append(ptrs, vp)
			if _, err := g.CreateVertex(tx, "req", bond.Struct(
				bond.FV(0, bond.String(fmt.Sprintf("r%03d", i))),
				bond.FV(1, bond.String(fmt.Sprintf("r%d", i%6))),
			)); err != nil {
				return err
			}
		}
		for i := range ptrs {
			if err := g.CreateEdge(tx, ptrs[i], "link", ptrs[(i*7+1)%len(ptrs)], bond.Null); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(s, DefaultConfig()), g, c
}

// grpRef is the naive evaluation of one eligible grouping: every vertex of
// typ read through core, counted per value of field (Null when missing),
// groups in value order (null first), then a stable sort on the count,
// `_having`, `_skip` and `_limit`.
type grpRef struct {
	typ, field  string
	having      func(n int64) bool
	order       int // 0: key order; 1: ascending count; -1: descending count
	skip, limit int
}

func (ref grpRef) eval(t *testing.T, g *core.Graph, c *fabric.Ctx) []GroupRow {
	t.Helper()
	tx := g.Store().Farm().CreateReadTransaction(c)
	var ptrs []core.VertexPtr
	if err := g.ScanVerticesByType(tx, ref.typ, func(_ bond.Value, vp core.VertexPtr) bool {
		ptrs = append(ptrs, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	vs, err := g.ReadVertices(tx, ptrs)
	if err != nil {
		t.Fatal(err)
	}
	schema, err := g.VertexTypeSchema(c, ref.typ)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := schema.FieldByName(ref.field)
	var keys []bond.Value
	var counts []int64
	for _, v := range vs {
		k, ok := v.Data.Field(f.ID)
		if !ok {
			k = bond.Null
		}
		i := 0
		for i < len(keys) && !keys[i].Equal(k) {
			i++
		}
		if i == len(keys) {
			keys = append(keys, k)
			counts = append(counts, 0)
		}
		counts[i]++
	}
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]].Less(keys[idx[b]]) })
	var out []GroupRow
	for _, i := range idx {
		if ref.having != nil && !ref.having(counts[i]) {
			continue
		}
		out = append(out, GroupRow{
			Keys:       map[string]bond.Value{ref.field: keys[i]},
			Aggregates: map[string]bond.Value{"_count(*)": bond.Int64(counts[i])},
		})
	}
	if ref.order != 0 {
		sort.SliceStable(out, func(a, b int) bool {
			x, y := out[a].Aggregates["_count(*)"].AsInt(), out[b].Aggregates["_count(*)"].AsInt()
			if ref.order < 0 {
				return x > y
			}
			return x < y
		})
	}
	out = out[min(ref.skip, len(out)):]
	if ref.limit > 0 && len(out) > ref.limit {
		out = out[:ref.limit]
	}
	return out
}

// drainIndexGroups drains doc, checking every page reads no vertex and the
// first page reports the IndexGroupScan source. It returns the groups and
// the first page's stats.
func drainIndexGroups(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc, source string) ([]GroupRow, Stats) {
	t.Helper()
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatalf("Execute(%s): %v", doc, err)
	}
	first := res.Stats
	if len(first.Levels) == 0 || first.Levels[0].Source != source {
		t.Fatalf("%s: levels %+v, want source %s", doc, first.Levels, source)
	}
	var got []GroupRow
	for {
		if res.Stats.VerticesRead != 0 {
			t.Fatalf("%s: a page read %d vertices, want 0", doc, res.Stats.VerticesRead)
		}
		got = append(got, res.Groups...)
		if res.Continuation == "" {
			return got, first
		}
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatalf("Fetch(%s): %v", doc, err)
		}
	}
}

func TestIndexGroupParity(t *testing.T) {
	e, g, c := newGroupIndexEnv(t)
	e.cfg.GroupChunk = 8
	shapes := []struct {
		clause string
		ref    grpRef
	}{
		{``, grpRef{}},
		{`, "_having": {"_count(*)": {"_gt": 4}}`, grpRef{having: func(n int64) bool { return n > 4 }}},
		{`, "_orderby": "-_count(*)", "_limit": 5`, grpRef{order: -1, limit: 5}},
		{`, "_orderby": "_count(*)"`, grpRef{order: 1}},
		{`, "_skip": 3, "_limit": 7`, grpRef{skip: 3, limit: 7}},
		{`, "_orderby": "-_count(*)", "_skip": 2, "_limit": 9, "_having": {"_count(*)": {"_le": 6}}`,
			grpRef{order: -1, skip: 2, limit: 9, having: func(n int64) bool { return n <= 6 }}},
	}
	// s: strings with an empty-string group; i: int32 with negatives; d:
	// doubles; all three with a null group. req.k is required: no null
	// group, no null count.
	keys := []struct{ typ, field string }{{"grp", "s"}, {"grp", "i"}, {"grp", "d"}, {"req", "k"}}
	for _, k := range keys {
		for _, sh := range shapes {
			ref := sh.ref
			ref.typ, ref.field = k.typ, k.field
			want := ref.eval(t, g, c)
			// Pages below, at and across GroupChunk, and the default.
			for _, ps := range []int{3, 8, 20, 0} {
				hints := ""
				if ps > 0 {
					hints = fmt.Sprintf(`"_hints": {"page_size": %d}, `, ps)
				}
				doc := fmt.Sprintf(`{%s"_type": %q, "_groupby": %q, "_select": ["_count(*)"]%s}`, hints, k.typ, k.field, sh.clause)
				got, _ := drainIndexGroups(t, e, g, c, doc, fmt.Sprintf("IndexGroupScan(%s.%s)", k.typ, k.field))
				sameGroups(t, doc, got, want)
			}
		}
	}
	// The fixture must hold the edge groups the parity claims cover.
	special := 0
	for _, gr := range (grpRef{typ: "grp", field: "s"}).eval(t, g, c) {
		if v := gr.Keys["s"]; v.IsNull() || v.AsString() == "" {
			special++
		}
	}
	if special != 2 {
		t.Fatalf("fixture has %d of the null and empty-string groups, want both", special)
	}
}

// TestIndexGroupSpill: the ordered form drains the index walk into sorted
// runs and spills them past MaxWorkingSet exactly like worker runs.
func TestIndexGroupSpill(t *testing.T) {
	e, g, c := newGroupIndexEnv(t)
	e.cfg.GroupChunk = 4
	e.cfg.MaxWorkingSet = 5
	doc := `{"_hints": {"page_size": 4}, "_type": "grp", "_groupby": "s", "_select": ["_count(*)"], "_orderby": "-_count(*)"}`
	want := grpRef{typ: "grp", field: "s", order: -1}.eval(t, g, c)
	got, first := drainIndexGroups(t, e, g, c, doc, "IndexGroupScan(grp.s)")
	sameGroups(t, doc, got, want)
	if want := int64(len(want) / 5); first.GroupSpills != want {
		t.Fatalf("GroupSpills = %d, want %d", first.GroupSpills, want)
	}
	if first.Levels[0].ActRows != int64(len(got)) {
		t.Fatalf("act = %d, want every group (%d)", first.Levels[0].ActRows, len(got))
	}
	if names := e.spill.TableNames(); len(names) != 0 {
		t.Fatalf("spill tables leaked after drain: %v", names)
	}
}

// TestIndexGroupExplain: eligible shapes print IndexGroupScan in place of
// TypeScan and Filter; ineligible shapes plan exactly as they did before
// index-only grouping existed (golden text).
func TestIndexGroupExplain(t *testing.T) {
	e, g, c := newGroupIndexEnv(t)
	out, err := e.Explain(c, g, []byte(`{"_type": "grp", "_groupby": "s", "_select": ["_count(*)"], "_orderby": "-_count(*)", "_limit": 3}`))
	if err != nil {
		t.Fatal(err)
	}
	want := "L0 IndexGroupScan(grp.s) est=25\n  GroupAgg(by s: _count(*))\n  Shape(orderby -_count(*); limit 3)\n"
	if out != want {
		t.Fatalf("eligible Explain:\n%s\nwant:\n%s", out, want)
	}
	pt, err := e.ExplainPlan(c, g, []byte(`{"_type": "req", "_groupby": "k", "_select": ["_count(*)"]}`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if lv := pt.Levels[0]; lv.Detail != "IndexGroupScan(req.k)" || lv.Est != 6 || len(lv.Children) != 1 || lv.Children[0].Op != "GroupAgg" {
		t.Fatalf("ExplainPlan level 0 = %+v (children %d), want IndexGroupScan(req.k) est=6 with one GroupAgg child", lv, len(lv.Children))
	}

	golden := []struct{ doc, want string }{
		{`{"_type": "grp", "s": "k01", "_groupby": "s", "_select": ["_count(*)"]}`,
			"L0 IndexScan(grp.s = \"k01\") est=5\n  Filter(_type=grp, s = \"k01\")\n  GroupAgg(by s: _count(*))\n"},
		{`{"_type": "grp", "_out_edge": {"_type": "link", "_vertex": {"_type": "grp", "_groupby": "s", "_select": ["_count(*)"]}}}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  Traverse(out link)\n  L1 Frontier est=125\n    Filter(_type=grp)\n    GroupAgg(by s: _count(*))\n"},
		{`{"_type": "grp", "_recurse": {"_type": "link", "_max": 2, "_vertex": {"_select": ["_count(*)"]}}}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  Recurse(out link, 1..2) est=256\n    Iter(1/2) est=125\n    Iter(2/2) est=131\n  L1 Frontier est=256\n    Aggregate(_count(*))\n"},
		{`{"_type": "grp", "_groupby": "u", "_select": ["_count(*)"]}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  GroupAgg(by u: _count(*))\n"},
		{`{"_type": "grp", "_groupby": "s", "_select": ["_count(*)", "_sum(n)"]}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  GroupAgg(by s: _count(*), _sum(n))\n"},
		{`{"_type": "grp", "_groupby": ["s", "i"], "_select": ["_count(*)"]}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  GroupAgg(by s, i: _count(*))\n"},
		{`{"_type": "grp", "_groupby": "m[k]", "_select": ["_count(*)"]}`,
			"L0 TypeScan(grp) est=120\n  Filter(_type=grp)\n  GroupAgg(by m[k]: _count(*))\n"},
	}
	// Estimates off sketches (heavy hitters, distinct sources) depend on
	// vertex placement, which is random; the operators must not move.
	noEst := regexp.MustCompile(` est=\d+`)
	for _, tc := range golden {
		out, err := e.Explain(c, g, []byte(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		if noEst.ReplaceAllString(out, "") != noEst.ReplaceAllString(tc.want, "") {
			t.Errorf("Explain(%s):\n%s\nwant:\n%s", tc.doc, out, tc.want)
		}
		res, err := e.Execute(c, g, []byte(tc.doc))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Stats.Levels) > 0 && strings.HasPrefix(res.Stats.Levels[0].Source, "IndexGroupScan") {
			t.Errorf("Execute(%s) ran %s, want the worker path", tc.doc, res.Stats.Levels[0].Source)
		}
	}
}

// TestIndexGroupSnapshot: later pages read the first page's snapshot, even
// after writes move keys and add a null-key vertex and GC runs in between.
func TestIndexGroupSnapshot(t *testing.T) {
	e, g, c := newGroupIndexEnv(t)
	e.cfg.GroupChunk = 4
	f := g.Store().Farm()
	doc := `{"_hints": {"page_size": 3}, "_type": "grp", "_groupby": "s", "_select": ["_count(*)"]}`
	want := grpRef{typ: "grp", field: "s"}.eval(t, g, c) // the first page's snapshot: no write precedes it
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation")
	}
	got := res.Groups
	err = farm.RunTransaction(c, f, func(tx *farm.Tx) error {
		vp, ok, err := g.LookupVertex(tx, "grp", bond.String("g001"))
		if err != nil || !ok {
			return fmt.Errorf("lookup g001: %v %v", ok, err)
		}
		// k01 → k22: out of a group behind the cursor into one ahead of it.
		if err := g.UpdateVertex(tx, vp, bond.Struct(bond.FV(0, bond.String("g001")), bond.FV(1, bond.String("k22")))); err != nil {
			return err
		}
		_, err = g.CreateVertex(tx, "grp", bond.Struct(bond.FV(0, bond.String("gnew"))))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	f.GCVersions(c)
	for res.Continuation != "" {
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		got = append(got, res.Groups...)
	}
	sameGroups(t, "drained at the first page's snapshot", got, want)
	now, _ := drainIndexGroups(t, e, g, c, doc, "IndexGroupScan(grp.s)")
	sameGroups(t, "a new query after the writes", now, grpRef{typ: "grp", field: "s"}.eval(t, g, c))
}

// TestIndexGroupFallsBackWithoutIndex: a grouping on an unindexed field of
// an eligible shape keeps the worker path and its answer.
func TestIndexGroupFallsBackWithoutIndex(t *testing.T) {
	e, g, c := newGroupIndexEnv(t)
	res, err := e.Execute(c, g, []byte(`{"_type": "grp", "_groupby": "u", "_select": ["_count(*)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VerticesRead != grpItems || res.Stats.Levels[0].Source != "TypeScan(grp)" {
		t.Fatalf("read %d vertices via %s, want %d via TypeScan(grp)", res.Stats.VerticesRead, res.Stats.Levels[0].Source, grpItems)
	}
	sameGroups(t, "unindexed key", res.Groups, grpRef{typ: "grp", field: "u"}.eval(t, g, c))
}
