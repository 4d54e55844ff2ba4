package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
)

// Streamed grouped aggregation: parity with a naive reference evaluator,
// `_having` surface + binding, continuation lifecycle for parked group
// runs, and spill-backed completion of ordered queries past
// MaxWorkingSet. The skew env has 81 groups by category: "hot" with 120
// members and 80 singleton tails (tie-heavy on _count). Integer
// aggregates only — float sums are merge-order sensitive.

// groupRef is the naive evaluation of one grouped skew-env document: a
// full scan of the product vertices through core, grouping in a map, key
// sort, a stable descending sort on one aggregate, then _having,
// _skip and _limit.
type groupRef struct {
	byScore bool     // group by (category, score) instead of category
	aggs    []string // of _count(*), _sum(score), _min(score), _max(score)
	having  func(agg map[string]int64) bool
	orderBy string // aggregate sorted descending; "" keeps key order
	skip    int
	limit   int
}

func (ref groupRef) eval(t *testing.T, g *core.Graph, c *fabric.Ctx) []GroupRow {
	t.Helper()
	tx := g.Store().Farm().CreateReadTransaction(c)
	var ptrs []core.VertexPtr
	if err := g.ScanVerticesByType(tx, "product", func(_ bond.Value, vp core.VertexPtr) bool {
		ptrs = append(ptrs, vp)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	vs, err := g.ReadVertices(tx, ptrs)
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		cat   string
		score int64
	}
	accs := map[key]map[string]int64{}
	for _, v := range vs {
		cat, _ := v.Data.Field(1)
		sv, _ := v.Data.Field(2)
		score := sv.AsInt()
		k := key{cat: cat.AsString()}
		if ref.byScore {
			k.score = score
		}
		a := accs[k]
		if a == nil {
			a = map[string]int64{"_min(score)": math.MaxInt64, "_max(score)": math.MinInt64}
			accs[k] = a
		}
		a["_count(*)"]++
		a["_sum(score)"] += score
		a["_min(score)"] = min(a["_min(score)"], score)
		a["_max(score)"] = max(a["_max(score)"], score)
	}
	keys := make([]key, 0, len(accs))
	for k := range accs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].cat != keys[j].cat {
			return keys[i].cat < keys[j].cat
		}
		return keys[i].score < keys[j].score
	})
	var out []GroupRow
	for _, k := range keys {
		a := accs[k]
		if ref.having != nil && !ref.having(a) {
			continue
		}
		gr := GroupRow{
			Keys:       map[string]bond.Value{"category": bond.String(k.cat)},
			Aggregates: map[string]bond.Value{},
		}
		if ref.byScore {
			gr.Keys["score"] = bond.Int64(k.score)
		}
		for _, name := range ref.aggs {
			gr.Aggregates[name] = bond.Int64(a[name])
		}
		out = append(out, gr)
	}
	if ref.orderBy != "" {
		sort.SliceStable(out, func(i, j int) bool {
			return out[i].Aggregates[ref.orderBy].AsInt() > out[j].Aggregates[ref.orderBy].AsInt()
		})
	}
	out = out[min(ref.skip, len(out)):]
	if ref.limit > 0 && len(out) > ref.limit {
		out = out[:ref.limit]
	}
	return out
}

// drainGroups executes doc and fetches every continuation page.
func drainGroups(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) []GroupRow {
	t.Helper()
	var got []GroupRow
	res, err := e.Execute(c, g, []byte(doc))
	for {
		if err != nil {
			t.Fatalf("Execute(%s): %v", doc, err)
		}
		got = append(got, res.Groups...)
		if res.Continuation == "" {
			return got
		}
		res, err = e.Fetch(c, res.Continuation)
	}
}

func sameGroups(t *testing.T, label string, got, want []GroupRow) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, want %d", label, len(got), len(want))
	}
	for i := range got {
		for _, m := range []struct {
			name     string
			got, ref map[string]bond.Value
		}{
			{"keys", got[i].Keys, want[i].Keys},
			{"aggregates", got[i].Aggregates, want[i].Aggregates},
		} {
			if len(m.got) != len(m.ref) {
				t.Fatalf("%s: group %d has %d %s, want %d", label, i, len(m.got), m.name, len(m.ref))
			}
			for k, v := range m.ref {
				gv, ok := m.got[k]
				if !ok || !gv.Equal(v) {
					t.Fatalf("%s: group %d %s[%q] = %v, want %v", label, i, m.name, k, gv, v)
				}
			}
		}
	}
}

func TestGroupStreamParity(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 7
	stream.cfg.GroupChunk = 8

	cases := []struct {
		doc string
		ref groupRef
	}{
		// Unordered high-tie rollup.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`,
			groupRef{aggs: []string{"_count(*)", "_sum(score)"}}},
		// Multi-key grouping.
		{`{"_type": "product", "_groupby": ["category", "score"], "_select": ["_count(*)", "_min(score)"]}`,
			groupRef{byScore: true, aggs: []string{"_count(*)", "_min(score)"}}},
		// Ordered by aggregate with 80 ties on count=1.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_max(score)"], "_orderby": "-_count(*)"}`,
			groupRef{aggs: []string{"_count(*)", "_max(score)"}, orderBy: "_count(*)"}},
		// Skip + limit through the pager (the `_count(*)`-only form runs
		// as an IndexGroupScan; the `_sum` twin keeps the worker runs).
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_skip": 5, "_limit": 30}`,
			groupRef{aggs: []string{"_count(*)"}, skip: 5, limit: 30}},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"], "_skip": 5, "_limit": 30}`,
			groupRef{aggs: []string{"_count(*)", "_sum(score)"}, skip: 5, limit: 30}},
		// _having re-checked at the coordinator after the merge.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_max(score)"], "_having": {"_max(score)": {"_ge": 100}}}`,
			groupRef{aggs: []string{"_count(*)", "_max(score)"},
				having: func(a map[string]int64) bool { return a["_max(score)"] >= 100 }}},
		// _having on _count: only "hot" survives.
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_count(*)": {"_gt": 1}}}`,
			groupRef{aggs: []string{"_count(*)"},
				having: func(a map[string]int64) bool { return a["_count(*)"] > 1 }}},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"], "_having": {"_count(*)": {"_gt": 1}}}`,
			groupRef{aggs: []string{"_count(*)", "_sum(score)"},
				having: func(a map[string]int64) bool { return a["_count(*)"] > 1 }}},
	}
	for _, tc := range cases {
		sameGroups(t, tc.doc, drainGroups(t, stream, g, c, tc.doc), tc.ref.eval(t, g, c))
	}
}

// TestGroupStreamResidency pins the streaming claim: the coordinator never
// holds the full group set of 81 — neither merging worker runs (the `_sum`
// doc) nor walking the category index (the `_count(*)`-only doc).
func TestGroupStreamResidency(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.PageSize = 10
	stream.cfg.GroupChunk = 8
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`

	res, err := stream.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	peak := res.Stats.PeakGroups
	shipped := res.Stats.GroupsShipped
	for res.Continuation != "" {
		if res, err = stream.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		if res.Stats.PeakGroups > peak {
			peak = res.Stats.PeakGroups
		}
		shipped += res.Stats.GroupsShipped
	}
	if peak <= 0 || peak >= 81 {
		t.Fatalf("streaming PeakGroups = %d, want in (0, 81): O(page + machines·chunk), not O(groups)", peak)
	}
	// Every group not wholly resident on the coordinator ships exactly one
	// partial state per remote machine holding it; the coordinator's own
	// partials never cross the fabric, so shipped < one-per-(machine,group).
	if shipped == 0 || shipped > 5*81 {
		t.Fatalf("GroupsShipped = %d, want in (0, %d]", shipped, 5*81)
	}

	// The index walk holds one chunk besides the page, reads no vertex and
	// neither ships nor parks anything.
	idx := `{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`
	res, err = stream.Execute(c, g, []byte(idx))
	if err != nil {
		t.Fatal(err)
	}
	if src := res.Stats.Levels[0].Source; src != "IndexGroupScan(product.category)" {
		t.Fatalf("source = %s, want IndexGroupScan(product.category)", src)
	}
	peak, shipped = res.Stats.PeakGroups, res.Stats.GroupsShipped
	reads, rpcs := res.Stats.VerticesRead, res.Stats.RPCs
	for m := 0; m < stream.store.Farm().Fabric().Machines(); m++ {
		if n := stream.PendingRuns(fabric.MachineID(m)); n != 0 {
			t.Fatalf("PendingRuns(%d) = %d behind the first page, want 0", m, n)
		}
	}
	for res.Continuation != "" {
		if res, err = stream.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, res.Stats.PeakGroups)
		shipped += res.Stats.GroupsShipped
		reads += res.Stats.VerticesRead
	}
	if peak <= 0 || peak > 10+8 {
		t.Fatalf("index PeakGroups = %d, want in (0, page + chunk = 18]", peak)
	}
	if shipped != 0 || reads != 0 || rpcs != 0 {
		t.Fatalf("index path shipped %d groups, read %d vertices, sent %d RPCs; want none", shipped, reads, rpcs)
	}
}

func TestHavingValidation(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	cases := []struct {
		doc  string
		want string
	}{
		{`{"_type": "product", "_select": ["id"], "_having": {"_count(*)": 1}}`,
			"requires _groupby"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_max(score)": 5}}`,
			"must name a _select aggregate"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_max(score)", "_max(id)"], "_having": {"_max": 5}}`,
			"ambiguous"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {"_count(*)": {"_prefix": "1"}}}`,
			"does not support _prefix"},
		{`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_having": {}}`,
			"_having must not be empty"},
	}
	for _, tc := range cases {
		_, err := e.Execute(c, g, []byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Execute(%s) err = %v, want containing %q", tc.doc, err, tc.want)
		}
	}
}

func TestHavingParamBinding(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	p, err := e.Prepare(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_having": {"_count(*)": {"_ge": "$min"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Exec(c, Params{"min": 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Keys["category"].AsString() != "hot" {
		t.Fatalf("groups = %v, want exactly [hot]", res.Groups)
	}
	if n := res.Groups[0].Aggregates["_count(*)"].AsInt(); n != 120 {
		t.Fatalf("hot count = %d, want 120", n)
	}
	// Rebinding the same prepared query flips the answer: every group
	// passes _count >= 1.
	res, err = p.Exec(c, Params{"min": 1})
	if err != nil {
		t.Fatal(err)
	}
	total := len(res.Groups)
	for res.Continuation != "" {
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		total += len(res.Groups)
	}
	if total != 81 {
		t.Fatalf("groups with min=1 = %d, want 81", total)
	}
	if _, err := p.Exec(c, nil); err == nil || !strings.Contains(err.Error(), "unbound parameter $min") {
		t.Fatalf("Exec(nil params) = %v, want unbound parameter", err)
	}
	if _, err := p.Exec(c, Params{"min": 2, "other": 1}); err == nil || !strings.Contains(err.Error(), "unknown parameter $other") {
		t.Fatalf("Exec(extra param) = %v, want unknown parameter", err)
	}
}

func TestHavingExplain(t *testing.T) {
	e, _, g, c := newSkewEnv(t)
	out, err := e.Explain(c, g, []byte(`{"_type": "product", "_groupby": "category",
	  "_select": ["_count(*)"], "_having": {"_count(*)": {"_ge": "$min"}}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Having(") || !strings.Contains(out, "_count(*) >= $min") {
		t.Fatalf("Explain missing having clause:\n%s", out)
	}
}

// TestGroupRunStoreExpiry exercises the worker-side run park directly:
// tails a crashed or slow coordinator never pulls must die by TTL, and a
// pull after expiry is a restartable ErrBadToken.
func TestGroupRunStoreExpiry(t *testing.T) {
	e, _, _, c := newSkewEnv(t)
	runs := e.runs[c.M]
	gs := &groupState{}
	e.cfg.GroupChunk = 1
	id := runs.put(c, 20*time.Millisecond, []groupEntry{{enc: "a", gs: gs}, {enc: "b", gs: gs}})
	if n := e.PendingRuns(c.M); n != 1 {
		t.Fatalf("PendingRuns = %d, want 1", n)
	}
	// Partial pull leaves the rest parked.
	part, more, err := e.pullRun(c, id)
	if err != nil || len(part) != 1 || !more {
		t.Fatalf("pullRun(chunk 1) = %d entries, more=%v, err=%v", len(part), more, err)
	}
	time.Sleep(30 * time.Millisecond)
	if n := runs.expire(c.Now()); n != 1 {
		t.Fatalf("expire swept %d runs, want 1", n)
	}
	if _, _, err := e.pullRun(c, id); !errors.Is(err, ErrBadToken) {
		t.Fatalf("pullRun(expired) = %v, want ErrBadToken", err)
	}

	// Draining a run fully removes it without waiting for expiry.
	e.cfg.GroupChunk = 8
	id = runs.put(c, time.Minute, []groupEntry{{enc: "a", gs: gs}})
	rest, more, err := e.pullRun(c, id)
	if err != nil || len(rest) != 1 || more {
		t.Fatalf("pullRun(all) = %d entries, more=%v, err=%v", len(rest), more, err)
	}
	if n := e.PendingRuns(c.M); n != 0 {
		t.Fatalf("PendingRuns after drain = %d, want 0", n)
	}

	// Every put expires the store's stale tails: nothing else needs to
	// sweep them.
	e, _, _, c = newSkewEnv(t)
	runs = e.runs[c.M]
	const ttl = 20 * time.Millisecond
	runs.put(c, ttl, []groupEntry{{enc: "a", gs: gs}})
	time.Sleep(ttl + 10*time.Millisecond)
	runs.put(c, ttl, []groupEntry{{enc: "b", gs: gs}})
	if n := e.PendingRuns(c.M); n != 1 {
		t.Fatalf("PendingRuns after a put past the TTL = %d, want 1 (the new tail)", n)
	}
}

// TestRunTailsDieWithCursor: worker run tails die with the cursor that
// merges them — on Release, when a limited grouping ends in one page, and
// when the fan-out fails — not at their TTL.
func TestRunTailsDieWithCursor(t *testing.T) {
	const doc = `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]`
	env := func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
		e, _, g, c := newSkewEnv(t)
		e.cfg.GroupChunk = 2
		e.cfg.PageSize = 5
		return e, g, c
	}
	t.Run("release", func(t *testing.T) {
		e, g, c := env(t)
		res, err := e.Execute(c, g, []byte(doc+"}"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Continuation == "" {
			t.Fatal("expected a continuation")
		}
		if err := e.Release(c, res.Continuation); err != nil {
			t.Fatal(err)
		}
		assertNothingPending(t, e, "after Release")
	})
	t.Run("limit", func(t *testing.T) {
		e, g, c := env(t)
		res, err := e.Execute(c, g, []byte(doc+`, "_limit": 3}`))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Groups) != 3 || res.Continuation != "" {
			t.Fatalf("%d groups, continuation %q; want 3 in one page", len(res.Groups), res.Continuation)
		}
		assertNothingPending(t, e, "after a one-page _limit")
	})
	t.Run("failed owner", func(t *testing.T) {
		e, g, c := env(t)
		fab := e.store.Farm().Fabric()
		for m := fabric.MachineID(1); int(m) < fab.Machines(); m++ {
			fab.Fail(m)
			if _, err := e.Execute(c, g, []byte(doc+"}")); !errors.Is(err, fabric.ErrUnreachable) {
				t.Fatalf("machine %d failed: err = %v, want ErrUnreachable", m, err)
			}
			assertNothingPending(t, e, fmt.Sprintf("machine %d failed", m))
			fab.Restore(m)
		}
	})
	// A crashed coordinator cannot tell its workers: their tails stay
	// parked until the TTL.
	t.Run("coordinator crash", func(t *testing.T) {
		e, g, c := env(t)
		e.cfg.ResultTTL = 20 * time.Millisecond
		res, err := e.Execute(c, g, []byte(doc+"}"))
		if err != nil {
			t.Fatal(err)
		}
		if res.Continuation == "" {
			t.Fatal("expected a continuation")
		}
		e.DropResultsOn(c.M)
		parked := 0
		for m := 0; m < e.store.Farm().Fabric().Machines(); m++ {
			parked += e.PendingRuns(fabric.MachineID(m))
		}
		if parked == 0 {
			t.Fatal("no worker tail outlived the crash; want them left to their TTL")
		}
		time.Sleep(30 * time.Millisecond)
		for m := 0; m < e.store.Farm().Fabric().Machines(); m++ {
			e.ExpireResults(c.At(fabric.MachineID(m)))
		}
		assertNothingPending(t, e, "after the TTL")
	})
}

// TestCrashDuringPagingLeavesNothing: a crash (DropResultsOn) that lands
// while a pull or a Fetch has its entry claimed must not let the page put
// the entry back afterwards — the crash wiped it. Run under -race.
func TestCrashDuringPagingLeavesNothing(t *testing.T) {
	// The window itself, step by step: claim, crash, restore.
	var dropped int
	s := newTTLStore(func([]groupEntry) { dropped++ })
	e, _, g, c := newSkewEnv(t)
	id := s.put(c, time.Minute, []groupEntry{{enc: "a"}})
	ent, ok := s.claim(c, id)
	if !ok {
		t.Fatal("claim of a live entry failed")
	}
	s.reset()
	s.restore(id, ent)
	if n := s.count(); n != 0 || dropped != 1 {
		t.Fatalf("after claim/reset/restore: %d entries, %d dropped; want 0, 1", n, dropped)
	}

	// Worker run tails pulled while their machine crashes.
	e.cfg.GroupChunk = 1
	tail := make([]groupEntry, 200)
	for i := range tail {
		tail[i] = groupEntry{enc: string(rune('a' + i%26)), gs: &groupState{}}
	}
	for round := 0; round < 20; round++ {
		id := e.runs[c.M].put(c, time.Minute, tail)
		var wg sync.WaitGroup
		started := make(chan struct{}, 2)
		for p := 0; p < 2; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, more, err := e.pullRun(c, id)
					if err != nil || !more {
						return
					}
					select {
					case started <- struct{}{}:
					default:
					}
				}
			}()
		}
		<-started // crash mid-stream
		e.DropResultsOn(c.M)
		wg.Wait()
		if n := e.PendingRuns(c.M); n != 0 {
			t.Fatalf("round %d: PendingRuns after crash = %d, want 0", round, n)
		}
	}

	// Cursors fetched while their coordinator crashes: the worker-run
	// merge (the `_sum` doc) and the index walk, which pins its snapshot.
	e.cfg.GroupChunk = 8
	const indexDoc = `{"_hints": {"page_size": 5}, "_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`
	for _, doc := range []string{
		`{"_hints": {"page_size": 5}, "_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`,
		indexDoc,
	} {
		crashWhileFetching(t, e, g, c, doc)
	}
	// Every crashed index cursor released its pin: a rewrite is exactly as
	// collectable as after one cleanly drained query.
	rewriteVertices(t, g, c, "product")
	crashed := e.store.Farm().GCVersions(c)
	e2, _, g2, c2 := newSkewEnv(t)
	drainQuery(t, e2, g2, c2, indexDoc)
	rewriteVertices(t, g2, c2, "product")
	if clean := e2.store.Farm().GCVersions(c2); crashed != clean {
		t.Fatalf("GCVersions freed %d after crashed index cursors, %d after a drained one", crashed, clean)
	}
}

// crashWhileFetching pages doc on one goroutine while the coordinator
// crashes mid-stream, 20 times over.
func crashWhileFetching(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) {
	t.Helper()
	for round := 0; round < 20; round++ {
		res, err := e.Execute(c, g, []byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		started := make(chan struct{}, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for token := res.Continuation; token != ""; {
				page, err := e.Fetch(c, token)
				if err != nil {
					if !errors.Is(err, ErrBadToken) {
						t.Error(err)
					}
					return
				}
				token = page.Continuation
				select {
				case started <- struct{}{}:
				default:
				}
			}
		}()
		<-started // crash mid-stream
		e.DropResultsOn(c.M)
		wg.Wait()
		if n := e.PendingResults(c.M); n != 0 {
			t.Fatalf("round %d: PendingResults after crash = %d, want 0", round, n)
		}
	}
}

// TestGroupStreamSweepUnderConcurrentFetch mirrors the ordered-traversal
// sweeper test: concurrent streamed-group paging races a 1ms sweeper
// under -race. Fast readers must see all 81 groups; slow readers may be
// swept mid-stream, which surfaces as ErrBadToken, never corruption.
func TestGroupStreamSweepUnderConcurrentFetch(t *testing.T) {
	// The worker twin pages parked run tails while the sweeper runs; the
	// count-only doc pages one pinned IndexGroupScan cursor instead.
	for _, tc := range []struct{ name, sel string }{
		{"worker", `"_count(*)", "_sum(score)"`},
		{"index", `"_count(*)"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			doc := `{"_hints": {"page_size": 10}, "_type": "product", "_groupby": "category", "_select": [` + tc.sel + `]}`
			e, _, g, c := newSkewEnv(t)
			e.cfg.ResultTTL = 40 * time.Millisecond
			e.cfg.GroupChunk = 8

			const streams = 6
			stop := make(chan struct{})
			var sweeperWG sync.WaitGroup
			sweeperWG.Add(1)
			go func() {
				defer sweeperWG.Done()
				for {
					select {
					case <-stop:
						return
					default:
						e.ExpireResults(c)
						time.Sleep(time.Millisecond)
					}
				}
			}()

			var wg sync.WaitGroup
			errCh := make(chan error, streams)
			for s := 0; s < streams; s++ {
				wg.Add(1)
				go func(slow bool) {
					defer wg.Done()
					res, err := e.Execute(c, g, []byte(doc))
					if err != nil {
						errCh <- err
						return
					}
					groups := len(res.Groups)
					token := res.Continuation
					for token != "" {
						if slow {
							time.Sleep(10 * time.Millisecond)
						}
						page, err := e.Fetch(c, token)
						if err != nil {
							if errors.Is(err, ErrBadToken) {
								return // swept mid-stream: acceptable for a slow reader
							}
							errCh <- err
							return
						}
						groups += len(page.Groups)
						token = page.Continuation
					}
					if groups != 81 {
						errCh <- errors.New("incomplete group stream despite no expiry")
					}
				}(s%2 == 1)
			}
			wg.Wait()
			close(stop)
			sweeperWG.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			time.Sleep(50 * time.Millisecond)
			e.ExpireResults(c)
			if n := e.PendingResults(0); n != 0 {
				t.Fatalf("PendingResults after final sweep = %d, want 0", n)
			}
			if n := e.PendingRuns(0); n != 0 {
				t.Fatalf("PendingRuns after final sweep = %d, want 0", n)
			}
		})
	}
}

// TestGroupStreamSpill: an ordered grouped query whose full group set
// exceeds MaxWorkingSet completes by spilling sorted runs to the object
// store, in the reference order.
func TestGroupStreamSpill(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`
	ref := groupRef{aggs: []string{"_sum(score)"}, orderBy: "_sum(score)"}.eval(t, g, c)

	// 81 groups > 40: large enough that no single worker's partial set
	// trips the per-batch check, small enough that the coordinator must
	// spill the sorted buffer (twice) instead of holding all 81.
	stream.cfg.MaxWorkingSet = 40
	stream.cfg.PageSize = 10
	var got []GroupRow
	var spills int64
	res, err := stream.Execute(c, g, []byte(doc))
	for {
		if err != nil {
			t.Fatalf("streaming spill query: %v", err)
		}
		got = append(got, res.Groups...)
		spills += res.Stats.GroupSpills
		if res.Continuation == "" {
			break
		}
		res, err = stream.Fetch(c, res.Continuation)
	}
	if spills != 2 {
		t.Fatalf("GroupSpills = %d, want 2 (81 groups past a 40-group working set)", spills)
	}
	sameGroups(t, "spilled ordered groups", got, ref)
	if names := stream.spill.TableNames(); len(names) != 0 {
		t.Fatalf("spill tables leaked after drain: %v", names)
	}
}

// TestGroupStreamSpillRelease: dropping the continuation mid-stream
// releases the spill tables backing it.
func TestGroupStreamSpillRelease(t *testing.T) {
	stream, _, g, c := newSkewEnv(t)
	stream.cfg.MaxWorkingSet = 40
	stream.cfg.PageSize = 10
	doc := `{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`
	res, err := stream.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation")
	}
	if names := stream.spill.TableNames(); len(names) == 0 {
		t.Fatal("expected live spill tables behind the continuation")
	}
	if err := stream.Release(c, res.Continuation); err != nil {
		t.Fatal(err)
	}
	if names := stream.spill.TableNames(); len(names) != 0 {
		t.Fatalf("spill tables leaked after Release: %v", names)
	}
}
