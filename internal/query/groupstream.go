package query

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
	"a1/internal/objectstore"
)

// Streaming grouped aggregation. Workers already reduce their batches to
// per-group partial states (shape.go); this file makes the coordinator side
// streaming: each worker ships its partials as a *key-sorted run* (first
// chunk inline in the RPC reply, the remainder parked in the worker's run
// store and pulled chunk by chunk), and the coordinator k-way merges the
// runs (kMerge) in encoded-key order, folding equal keys, so finalized
// groups flow out through continuation pages without the full group set
// ever being resident. Coordinator residency is O(page + machines·chunk)
// instead of O(groups).
//
// `_having` rides the runs: a worker whose local partial already proves a
// group fails globally ships a key-only tombstone (group keys are spread
// across machines, so a silent drop would let another machine's partial
// resurrect the group); when the terminal level ran on a single machine the
// local state is exact and failing groups are dropped outright. The
// coordinator re-checks every surviving group after its states merge.
//
// The order-by-aggregate form needs every group before the sort: the
// coordinator drains the run merge into buffers sorted by spillRowLess,
// spills each full buffer (MaxWorkingSet groups) to the engine's
// objectstore, and pages the merge of the spilled runs and the last
// in-memory buffer — graceful completion where a coordinator holding every
// group would fast-fail.
//
// Every grouped result pages through the pager, which applies the
// terminal _skip/_limit to either group stream and is the pageSource
// behind grouped continuations (continuation.go).

// groupEntry is one element of a key-sorted group run: the group key's
// order-preserving encoding and its partial aggregate states. A nil state
// is a `_having` tombstone — the shipping worker proved the group fails
// globally, so the coordinator must discard the key no matter what other
// machines contribute.
type groupEntry struct {
	enc string
	gs  *groupState
}

// wireBytes is the encoded width of one run entry: tombstones ship the key
// alone, full entries the key plus each aggregate's partial state.
func (ge *groupEntry) wireBytes() int {
	if ge.gs == nil {
		return len(ge.enc)
	}
	return ge.gs.wireBytes(ge.enc)
}

func runWireBytes(entries []groupEntry) int {
	n := 0
	for i := range entries {
		n += entries[i].wireBytes()
	}
	return n
}

// finalAggValue converts one merged aggregate state into its result value.
func finalAggValue(s *aggState, a Aggregate) bond.Value {
	switch a.Kind {
	case AggCount:
		return bond.Int64(s.count)
	case AggSum:
		if s.fracSum {
			return bond.Double(s.sum)
		}
		return bond.Int64(s.isum)
	case AggAvg:
		if s.count == 0 {
			return bond.Null
		}
		return bond.Double(s.sum / float64(s.count))
	case AggMin, AggMax:
		if !s.seenMM {
			return bond.Null
		}
		return s.mm
	}
	return bond.Null
}

// evalHavingOp applies one `_having` comparison to a finalized aggregate
// value. Incomparable kinds satisfy only (in)equality by deep equality,
// mirroring predicate evaluation.
func evalHavingOp(v bond.Value, op Op, want bond.Value) bool {
	cmp, ok := compareValues(v, want)
	if !ok {
		switch op {
		case OpEq:
			return v.Equal(want)
		case OpNe:
			return !v.Equal(want)
		}
		return false
	}
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	}
	return false
}

// evalHavingState tests a fully merged group state against the `_having`
// conjunction. A null aggregate (empty _min/_max, _avg over no values)
// fails every comparison.
func evalHavingState(gs *groupState, having []HavingPred, aggs []Aggregate) bool {
	for _, hp := range having {
		v := finalAggValue(&gs.aggs[hp.AggIdx], aggs[hp.AggIdx])
		if v.IsNull() || !evalHavingOp(v, hp.Op, hp.Value) {
			return false
		}
	}
	return true
}

// havingProvesFail reports whether a *local* partial state already proves
// the group fails a `_having` predicate globally, no matter what other
// machines contribute. Only merge-monotone aggregates admit proofs:
// _count(*) and _max only grow under merge, so a local value at or past an
// upper bound is final; _min only shrinks, so a local value at or below a
// lower bound is final. Sums and averages prove nothing (values may be
// negative; averages move both ways).
func havingProvesFail(gs *groupState, having []HavingPred, aggs []Aggregate) bool {
	for _, hp := range having {
		a := aggs[hp.AggIdx]
		s := &gs.aggs[hp.AggIdx]
		var v bond.Value
		var grows bool // true: global >= local; false: global <= local
		switch a.Kind {
		case AggCount:
			v, grows = bond.Int64(s.count), true
		case AggMax:
			if !s.seenMM {
				continue
			}
			v, grows = s.mm, true
		case AggMin:
			if !s.seenMM {
				continue
			}
			v, grows = s.mm, false
		default:
			continue
		}
		cmp, ok := compareValues(v, hp.Value)
		if !ok {
			continue
		}
		switch hp.Op {
		case OpLt:
			if grows && cmp >= 0 {
				return true
			}
		case OpLe:
			if grows && cmp > 0 {
				return true
			}
		case OpGt:
			if !grows && cmp <= 0 {
				return true
			}
		case OpGe:
			if !grows && cmp < 0 {
				return true
			}
		case OpEq:
			if (grows && cmp > 0) || (!grows && cmp < 0) {
				return true
			}
		}
	}
	return false
}

// buildGroupRun serializes a worker batch's group map into a key-sorted run
// and applies the `_having` pushdown. Emission order must be the encoded
// keys ascending — the order the coordinator merge relies on — so the runs
// are collected and sorted, never emitted in map order (a1/maporder).
// exact marks the single-machine case where local states are final: failing
// groups are dropped outright instead of tombstoned. Returns the run and
// the number of groups the pushdown pruned.
func buildGroupRun(groups map[string]*groupState, pat *VertexPattern, exact bool) ([]groupEntry, int) {
	encs := make([]string, 0, len(groups))
	for enc := range groups {
		encs = append(encs, enc)
	}
	sort.Strings(encs)
	entries := make([]groupEntry, 0, len(encs))
	filtered := 0
	for _, enc := range encs {
		gs := groups[enc]
		if len(pat.Having) > 0 {
			if exact {
				if !evalHavingState(gs, pat.Having, pat.Aggs) {
					filtered++
					continue
				}
			} else if havingProvesFail(gs, pat.Having, pat.Aggs) {
				// The key must still cross the fabric: other machines hold
				// partials for it and would otherwise resurrect the group.
				filtered++
				entries = append(entries, groupEntry{enc: enc})
				continue
			}
		}
		entries = append(entries, groupEntry{enc: enc, gs: gs})
	}
	return entries, filtered
}

// runReply is one worker's answer to a grouped batch: the first chunk of
// its sorted run and the id its tail is parked under (0 = the chunk is the
// whole run).
type runReply struct {
	m     fabric.MachineID
	first []groupEntry
	tail  uint64
}

// execGroupedLevel runs a grouped terminal level streaming: the frontier is
// partitioned by primary host exactly like execLevel, each machine reduces
// its batch to group partials and sorts them into a run, and the returned
// cursor k-way merges the runs lazily — pulling parked run tails chunk by
// chunk as the result pages out.
func (st *execState) execGroupedLevel(qc *fabric.Ctx, frontier []core.VertexPtr, pat *VertexPattern, lp *LevelPlan) (*groupCursor, error) {
	o, err := st.partition(qc, frontier)
	if err != nil {
		return nil, err
	}
	// One machine owns the whole terminal frontier: its partial states are
	// the final states, so `_having` evaluates exactly at the worker and the
	// coordinator re-check is redundant.
	exact := len(o.ms) == 1
	replies := make([]*runReply, len(o.ms))
	err = fanOut(st, qc, o, &st.stats.GroupsShipped,
		func(sc *fabric.Ctx, _ fabric.MachineID, batch []core.VertexPtr) (*runReply, error) {
			return st.buildGroupSource(sc, batch, pat, lp, exact)
		},
		func(rep *runReply) (int, int) { return runWireBytes(rep.first), countStates(rep.first) },
		func(i int, rep *runReply) { replies[i] = rep })
	cur := &groupCursor{
		e:      st.engine,
		merge:  kMerge[groupEntry]{runs: make([]mergeRun[groupEntry], 0, len(replies)), less: groupEntryLess},
		by:     pat.GroupBy,
		aggs:   pat.Aggs,
		having: pat.Having,
		exact:  exact,
		coord:  qc.M,
		gen:    st.engine.cursors[qc.M].generation(),
	}
	for _, rep := range replies {
		if rep != nil {
			cur.add(rep)
		}
	}
	if err != nil {
		// The batches that succeeded parked their run tails: drop them now
		// instead of at their TTL.
		cur.close(st.engine)
		return nil, err
	}
	if r := cur.resident(); r > st.stats.PeakGroups {
		st.stats.PeakGroups = r
	}
	return cur, nil
}

// countStates counts the full (non-tombstone) partial states in a run.
func countStates(entries []groupEntry) int {
	n := 0
	for i := range entries {
		if entries[i].gs != nil {
			n++
		}
	}
	return n
}

// buildGroupSource is the owner-side half: reduce the batch (execBatch
// enforces the per-machine working-set cap incrementally), sort the group
// map into a run, ship the first chunk inline and park the tail in this
// machine's run store under the continuation TTL.
func (st *execState) buildGroupSource(sc *fabric.Ctx, batch []core.VertexPtr, pat *VertexPattern, lp *LevelPlan, exact bool) (*runReply, error) {
	out, err := st.execBatch(sc, batch, pat, lp)
	if err != nil {
		return nil, err
	}
	entries, filtered := buildGroupRun(out.groups, pat, exact)
	if filtered > 0 {
		st.mu.Lock()
		st.stats.GroupsFiltered += int64(filtered)
		st.mu.Unlock()
	}
	e := st.engine
	rep := &runReply{m: sc.M, first: entries}
	if len(entries) > e.cfg.GroupChunk {
		rep.first = entries[:e.cfg.GroupChunk]
		rep.tail = e.runs[sc.M].put(sc, e.cfg.ResultTTL, entries[e.cfg.GroupChunk:])
	}
	return rep, nil
}

// pullRun hands the coordinator the next chunk of a run tail parked on
// c's machine; the rest stays parked under the same id until drained.
// more=false tells the caller the run is exhausted.
func (e *Engine) pullRun(c *fabric.Ctx, id uint64) ([]groupEntry, bool, error) {
	runs := e.runs[c.M]
	ent, ok := runs.claim(c, id)
	if !ok {
		return nil, false, fmt.Errorf("%w: group run expired; restart the query", ErrBadToken)
	}
	n := e.cfg.GroupChunk
	if len(ent.val) <= n {
		return ent.val, false, nil
	}
	chunk := ent.val[:n]
	ent.val = ent.val[n:]
	runs.restore(id, ent)
	return chunk, true, nil
}

func groupEntryLess(a, b *groupEntry) bool { return a.enc < b.enc }

// groupCursor folds the k-way merge of per-machine key-sorted runs into the
// stream of globally merged groups, ascending by encoded key —
// byte-identical order to sorting the whole group set. Equal keys across
// machines merge their aggregate states; a tombstone from any machine
// kills its key.
type groupCursor struct {
	e      *Engine
	merge  kMerge[groupEntry]
	by     []FieldPath
	aggs   []Aggregate
	having []HavingPred
	exact  bool
	unpin  func() // releases an IndexGroupScan's snapshot pin; nil for worker runs
	// tails are the worker run tails the merge may still pull; close drops
	// those left parked. coord and gen name the coordinator's cursor store
	// and its crash generation when the cursor was made: a cursor torn
	// down by its coordinator's crash leaves them to their TTL.
	tails []runTail
	coord fabric.MachineID
	gen   uint64
}

// runTail names a run tail parked in machine m's run store under id.
type runTail struct {
	m  fabric.MachineID
	id uint64
}

// add feeds one worker's run into the merge: its first chunk, then the
// tail it parked (if any), pulled chunk by chunk. Remote pulls account
// their reply bytes and shipped states like any worker RPC.
func (cur *groupCursor) add(rep *runReply) {
	if rep.tail == 0 {
		cur.merge.add(rep.first, nil)
		return
	}
	m, id := rep.m, rep.tail
	cur.tails = append(cur.tails, runTail{m, id})
	e := cur.e
	cur.merge.add(rep.first, func(c *fabric.Ctx, stats *Stats) ([]groupEntry, bool, error) {
		var entries []groupEntry
		var more bool
		var err error
		if m == c.M {
			entries, more, err = e.pullRun(c, id)
		} else {
			err = c.RPC(m, 32, func(sc *fabric.Ctx) (int, error) {
				var perr error
				entries, more, perr = e.pullRun(sc, id)
				if perr != nil {
					return 0, perr
				}
				return runWireBytes(entries), nil
			})
			if err == nil {
				stats.GroupsShipped += int64(countStates(entries))
				stats.BytesShipped += int64(runWireBytes(entries))
			}
		}
		if err != nil {
			return nil, false, err
		}
		// The pulling run is drained, so the chunk adds to what the other
		// runs already buffer.
		if r := cur.resident() + int64(len(entries)); r > stats.PeakGroups {
			stats.PeakGroups = r
		}
		return entries, more, nil
	})
}

// resident counts the group entries currently buffered at the coordinator.
func (cur *groupCursor) resident() int64 { return cur.merge.resident() }

// next returns the next merged group in encoded-key order, or ok=false when
// the runs are exhausted.
func (cur *groupCursor) next(c *fabric.Ctx, stats *Stats) (string, *groupState, bool, error) {
	for {
		h, err := cur.merge.head(c, stats)
		if err != nil || h == nil {
			return "", nil, false, err
		}
		enc := h.enc
		var merged *groupState
		dead := false
		for ; h != nil && h.enc == enc; h = cur.merge.buffered() {
			cur.merge.pop()
			c.Work(cur.e.cfg.CostMerge)
			switch {
			case h.gs == nil:
				dead = true // a worker proved the group fails _having
			case merged == nil:
				merged = h.gs
			default:
				mergeAggStates(merged.aggs, h.gs.aggs, cur.aggs)
			}
		}
		if dead || merged == nil {
			continue
		}
		if len(cur.having) > 0 && !cur.exact && !evalHavingState(merged, cur.having, cur.aggs) {
			stats.GroupsFiltered++
			continue
		}
		return enc, merged, true, nil
	}
}

// groupStream is a source of finalized groups the pager pages out: the live
// run merge (unordered `_groupby`) or the sorted-run merge
// (order-by-aggregate).
type groupStream interface {
	nextRow(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error)
	resident() int64
	close(e *Engine)
}

func (cur *groupCursor) nextRow(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	_, gs, ok, err := cur.next(c, stats)
	if err != nil || !ok {
		return GroupRow{}, false, err
	}
	return groupRowOf(gs, cur.by, cur.aggs), true, nil
}

// close releases the snapshot pin of an IndexGroupScan run and drops the
// worker run tails still parked — a drained tail is already gone. Only a
// cursor whose coordinator crashed leaves its tails to expire by TTL on
// the workers, as real workers cannot rely on a crashed coordinator to
// release them. The drops are untimed, like DropResultsOn.
func (cur *groupCursor) close(e *Engine) {
	if cur.unpin != nil {
		cur.unpin()
	}
	if len(cur.tails) > 0 && e.cursors[cur.coord].generation() == cur.gen {
		for _, t := range cur.tails {
			e.runs[t.m].remove(t.id)
		}
	}
	cur.tails = nil
}

// Index-only grouping (IndexGroupScan). A whole-type `_groupby` of one
// secondary-indexed field whose every aggregate is `_count(*)` reads no
// vertex: an index key's attribute prefix is OrderedEncode(value), exactly
// the group key appendGroupKey encodes for one scalar key, so a walk of the
// index yields the groups in the engine's encoded-key order and each
// group's count is the length of its key run. The walk is the single run
// of a groupCursor, refilled GroupChunk groups at a time through the
// query's snapshot; the pager, `_having`, `_skip`/`_limit`, the ordered
// form's sort and spill, and continuation paging apply unchanged.
//
// Vertices whose field is null or missing have no index entry but group
// under Null, whose encoding sorts first. Their count is the type's
// primary-index count minus the index entries, both read at the snapshot:
// the unordered form counts before its first group, while the ordered
// form, which drains every group before it sorts, derives the count from
// its own walk and emits the null group last. A required field has no
// null group.

// nullGroupKey is the encoded group key of the null group.
var nullGroupKey = string(appendGroupKey(nil, bond.Null))

// indexGroupRun walks one field's secondary index at a fixed snapshot,
// chunk by chunk, into key-sorted group entries.
type indexGroupRun struct {
	g          *core.Graph
	typ, field string
	ts         uint64
	naggs      int
	chunk      int
	after      []byte // attribute key of the last group emitted; nil before the first
	nulls      int64  // null-group count still to emit ahead of the keys
	nullLast   bool   // derive the null group after the walk (ordered form)
	entries    int64  // index entries walked, for nullLast
	groups     int64  // groups emitted so far (the level's act)
	cur        *groupCursor
}

// indexGroupScan serves a grouped root terminal from the `_groupby`
// field's secondary index: it takes the first chunk and returns the run,
// whose cursor the pager drains. served=false means the field has no index
// (or the type is unknown) and the caller falls through to the type scan.
func (st *execState) indexGroupScan(qc *fabric.Ctx, tx *farm.Tx, pat *VertexPattern, field string) (*indexGroupRun, bool, error) {
	e := st.engine
	schema, err := st.graph.VertexTypeSchema(qc, pat.Type)
	if err != nil {
		return nil, false, nil // unknown type: the type scan surfaces the error
	}
	f, ok := schema.FieldByName(field)
	if !ok {
		return nil, false, nil
	}
	r := &indexGroupRun{g: st.graph, typ: pat.Type, field: field, ts: st.ts,
		naggs: len(pat.Aggs), chunk: e.cfg.GroupChunk}
	ordered := len(pat.Orders) > 0
	r.nullLast = !f.Required && ordered
	if !f.Required && !ordered {
		r.nulls, err = r.countNulls(tx)
	}
	var first []groupEntry
	var more bool
	if err == nil {
		first, more, err = r.pull(qc)
	}
	if errors.Is(err, core.ErrNotFound) {
		return nil, false, nil // the index is gone
	}
	if err != nil {
		return nil, true, err
	}
	cur := &groupCursor{
		e:      e,
		merge:  kMerge[groupEntry]{less: groupEntryLess},
		by:     pat.GroupBy,
		aggs:   pat.Aggs,
		having: pat.Having,
	}
	var pull func(*fabric.Ctx, *Stats) ([]groupEntry, bool, error)
	if more {
		// Later chunks may be pulled by Fetches long after this query's
		// own pin is gone: the run holds the snapshot until it closes.
		cur.unpin = e.store.Farm().PinSnapshot(st.ts)
		pull = func(c *fabric.Ctx, stats *Stats) ([]groupEntry, bool, error) {
			entries, more, err := r.pull(c)
			if err != nil {
				return nil, false, err
			}
			if n := cur.resident() + int64(len(entries)); n > stats.PeakGroups {
				stats.PeakGroups = n
			}
			return entries, more, nil
		}
	}
	cur.merge.add(first, pull)
	if n := cur.resident(); n > st.stats.PeakGroups {
		st.stats.PeakGroups = n
	}
	r.cur = cur
	return r, true, nil
}

// countNulls counts the vertices with no index entry: the primary entries
// minus the secondary ones, at the run's snapshot.
func (r *indexGroupRun) countNulls(tx *farm.Tx) (int64, error) {
	var entries int64
	if err := r.g.IndexKeyWalk(tx, r.typ, r.field, nil, func([]byte) bool {
		entries++
		return true
	}); err != nil {
		return 0, err
	}
	total, err := r.g.CountVerticesTx(tx, r.typ)
	return int64(total) - entries, err
}

// pull walks the next chunk: up to GroupChunk groups (a pending null
// group included, the ordered form's trailing one not), resuming strictly
// after the last attribute key emitted. more=false means the walk reached
// the end of the index.
func (r *indexGroupRun) pull(c *fabric.Ctx) ([]groupEntry, bool, error) {
	tx := r.g.Store().Farm().CreateReadTransactionAt(c, r.ts)
	b := newGroupChunk(r.chunk+1, r.naggs)
	if r.nulls > 0 {
		b.add(nullGroupKey, bond.Null, r.nulls)
		r.nulls = 0
	}
	var key []byte
	var n int64
	var decodeErr error
	full := false
	emit := func() bool {
		v, _, err := bond.OrderedDecode(key)
		if err != nil {
			decodeErr = err
			return false
		}
		b.add(string(key), v, n)
		r.entries += n
		return true
	}
	err := r.g.IndexKeyWalk(tx, r.typ, r.field, r.after, func(attr []byte) bool {
		if n > 0 && bytes.Equal(attr, key) {
			n++
			return true
		}
		if n > 0 && !emit() {
			return false
		}
		if len(b.entries) >= r.chunk {
			full = true // attr starts the next chunk
			return false
		}
		key = append(key[:0], attr...)
		n = 1
		return true
	})
	if err == nil {
		err = decodeErr
	}
	if err == nil && !full && n > 0 && !emit() {
		err = decodeErr
	}
	if err != nil {
		return nil, false, err
	}
	if n > 0 {
		r.after = key // this pull's own buffer: the next pull starts a fresh one
	}
	r.groups += int64(len(b.entries))
	if full {
		return b.entries, true, nil
	}
	if r.nullLast {
		total, err := r.g.CountVerticesTx(tx, r.typ)
		if err != nil {
			return nil, false, err
		}
		if nulls := int64(total) - r.entries; nulls > 0 {
			b.add(nullGroupKey, bond.Null, nulls)
			r.groups++
		}
	}
	return b.entries, false, nil
}

// groupChunk builds one chunk of count-only group entries from slabs:
// four allocations per chunk instead of three per group. Capacity covers a
// full chunk plus the ordered form's trailing null group, so appends never
// move the states the entries point into.
type groupChunk struct {
	entries []groupEntry
	states  []groupState
	keys    []bond.Value
	aggs    []aggState
	naggs   int
}

func newGroupChunk(n, naggs int) *groupChunk {
	return &groupChunk{
		entries: make([]groupEntry, 0, n),
		states:  make([]groupState, 0, n),
		keys:    make([]bond.Value, 0, n),
		aggs:    make([]aggState, 0, n*naggs),
		naggs:   naggs,
	}
}

// add appends the group enc with key value v and every `_count(*)` at n.
func (b *groupChunk) add(enc string, v bond.Value, n int64) {
	k, a := len(b.keys), len(b.aggs)
	b.keys = append(b.keys, v)
	for range b.naggs {
		b.aggs = append(b.aggs, aggState{count: n})
	}
	b.states = append(b.states, groupState{keys: b.keys[k : k+1 : k+1], aggs: b.aggs[a:len(b.aggs):len(b.aggs)]})
	b.entries = append(b.entries, groupEntry{enc: enc, gs: &b.states[len(b.states)-1]})
}

// groupPager wraps a grouped terminal's merge cursor in the pager that cuts
// it into pages. The unordered form pages the run merge directly; the
// aggregate-`_orderby` form first drains it into sorted runs and pages
// their merge.
func (st *execState) groupPager(qc *fabric.Ctx, cur *groupCursor, tp *VertexPattern) (*pager, error) {
	var stream groupStream = cur
	if len(tp.Orders) > 0 {
		sm, err := st.collectOrderedGroups(qc, cur, tp)
		cur.close(st.engine) // drained (or failed): the sorted runs stand alone
		if err != nil {
			return nil, err
		}
		stream = sm
	}
	pg := &pager{stream: stream, skip: tp.Skip, limit: -1}
	if tp.Limit > 0 {
		pg.limit = tp.Limit
	}
	return pg, nil
}

// pager applies the terminal _skip/_limit to a group stream and cuts it
// into continuation pages — the pageSource of every grouped result. It
// holds a one-group lookahead so a page knows whether a continuation must
// be issued without an empty final page.
type pager struct {
	stream  groupStream
	skip    int
	limit   int // remaining _limit; -1 = unbounded
	pending *GroupRow
	done    bool
}

func (p *pager) pull(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	if p.pending != nil {
		gr := *p.pending
		p.pending = nil
		return gr, true, nil
	}
	if p.done || p.limit == 0 {
		p.done = true
		return GroupRow{}, false, nil
	}
	for {
		gr, ok, err := p.stream.nextRow(c, stats)
		if err != nil {
			return GroupRow{}, false, err
		}
		if !ok {
			p.done = true
			return GroupRow{}, false, nil
		}
		if p.skip > 0 {
			p.skip--
			continue
		}
		if p.limit > 0 {
			p.limit--
		}
		return gr, true, nil
	}
}

// nextPage emits up to n groups and reports whether more remain.
func (p *pager) nextPage(c *fabric.Ctx, n int, res *Result) (bool, error) {
	stats := &res.Stats
	var out []GroupRow
	for len(out) < n {
		gr, ok, err := p.pull(c, stats)
		if err != nil {
			return false, err
		}
		if !ok {
			break
		}
		out = append(out, gr)
	}
	if r := int64(len(out)) + p.stream.resident(); r > stats.PeakGroups {
		stats.PeakGroups = r
	}
	res.Groups = out
	if p.done {
		return false, nil
	}
	// Look one group ahead so an exactly-full page with nothing behind it
	// ends the stream instead of issuing a dead continuation.
	gr, ok, err := p.pull(c, stats)
	if err != nil || !ok {
		return false, err
	}
	p.pending = &gr
	return true, nil
}

func (p *pager) close(e *Engine) { p.stream.close(e) }

// Order-by-aggregate runs: the top-K-groups form needs every group before
// any aggregate order is final. The coordinator drains the run merge into a
// buffer sorted by the aggregate orders with the encoded key as the
// tie-break — the groups arrive key-sorted, so this is the order a stable
// aggregate sort of the whole group set gives. Past MaxWorkingSet buffered
// groups the sorted buffer is written to the engine's objectstore as one
// run, keyed by big-endian sequence number so sorted-order reads are
// sequence reads. The runs merge back lazily with a Go comparator — byte
// order of the stored rows is never relied on.

// spillRow is one finalized group with the encoded key that breaks
// aggregate-order ties.
type spillRow struct {
	enc string
	gr  GroupRow
}

// spillRowLess is the engine's aggregate-order comparator: groups by the
// aggregate `_orderby` keys (nulls last), then by encoded group key.
func spillRowLess(a, b *spillRow, tp *VertexPattern) bool {
	for k, ob := range tp.Orders {
		col := tp.Aggs[tp.GroupOrder[k]].Raw
		av, bv := a.gr.Aggregates[col], b.gr.Aggregates[col]
		an, bn := av.IsNull(), bv.IsNull()
		if an != bn {
			return bn
		}
		if an {
			continue
		}
		if cmp, ok := compareValues(av, bv); ok && cmp != 0 {
			if ob.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.enc < b.enc
}

// marshal encodes one spilled group: [enc, key values..., aggregate
// values...], positions fixed by the pattern's GroupBy/Aggs so field names
// need not be stored.
func (r *spillRow) marshal(by []FieldPath, aggs []Aggregate) []byte {
	keys := make([]bond.Value, len(by))
	for i, fp := range by {
		keys[i] = r.gr.Keys[fp.Raw]
	}
	avs := make([]bond.Value, len(aggs))
	for i, a := range aggs {
		avs[i] = r.gr.Aggregates[a.Raw]
	}
	return bond.Marshal(bond.List(bond.Blob([]byte(r.enc)), bond.List(keys...), bond.List(avs...)))
}

func unmarshalSpillRow(data []byte, by []FieldPath, aggs []Aggregate) (spillRow, error) {
	v, err := bond.Unmarshal(data)
	if err != nil {
		return spillRow{}, fmt.Errorf("a1ql: corrupt spill row: %v", err)
	}
	r := spillRow{
		enc: string(v.Index(0).AsBlob()),
		gr: GroupRow{
			Keys:       make(map[string]bond.Value, len(by)),
			Aggregates: make(map[string]bond.Value, len(aggs)),
		},
	}
	kl, al := v.Index(1), v.Index(2)
	for i, fp := range by {
		r.gr.Keys[fp.Raw] = kl.Index(i)
	}
	for i, a := range aggs {
		r.gr.Aggregates[a.Raw] = al.Index(i)
	}
	return r, nil
}

func spillSeqKey(i int) []byte {
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], uint64(i))
	return key[:]
}

// sortedRuns merges the order-by-aggregate runs — the spilled tables plus
// the last in-memory buffer — into the ordered group stream.
type sortedRuns struct {
	e      *Engine
	merge  kMerge[spillRow]
	tables []string
	work   time.Duration // merge cost per group; zero for a lone in-memory run
}

// spill sorts a full buffer and writes it to the objectstore as one run.
func (sr *sortedRuns) spill(rows []spillRow, tp *VertexPattern) error {
	e := sr.e
	sort.Slice(rows, func(i, j int) bool { return sr.merge.less(&rows[i], &rows[j]) })
	name := fmt.Sprintf("a1ql-spill-%d", e.spillSeq.Add(1))
	t := e.spill.CreateTable(name, objectstore.BestEffort)
	sr.tables = append(sr.tables, name)
	for i := range rows {
		if err := t.UpsertIfNewer(spillSeqKey(i), rows[i].marshal(tp.GroupBy, tp.Aggs), 1); err != nil {
			return err
		}
	}
	sr.merge.add(nil, e.spillPuller(t, tp))
	return nil
}

// spillPuller reads a spilled run back GroupChunk rows at a time. The
// chunk buffer is reused: the merge drains a chunk before it pulls the
// next.
func (e *Engine) spillPuller(t *objectstore.Table, tp *VertexPattern) func(*fabric.Ctx, *Stats) ([]spillRow, bool, error) {
	n, next := t.Len(), 0
	var buf []spillRow
	return func(*fabric.Ctx, *Stats) ([]spillRow, bool, error) {
		end := min(next+e.cfg.GroupChunk, n)
		buf = buf[:0]
		for ; next < end; next++ {
			row, ok, err := t.Get(spillSeqKey(next))
			if err != nil {
				return nil, false, err
			}
			if !ok {
				return nil, false, fmt.Errorf("a1ql: spill run missing row %d", next)
			}
			sr, err := unmarshalSpillRow(row.Value, tp.GroupBy, tp.Aggs)
			if err != nil {
				return nil, false, err
			}
			buf = append(buf, sr)
		}
		return buf, next < n, nil
	}
}

// collectOrderedGroups drains the run merge for the order-by-aggregate
// form. Groups buffer in memory up to MaxWorkingSet; each full buffer is
// sorted and spilled as a run, and the final partial buffer is sorted in
// place as the last run.
func (st *execState) collectOrderedGroups(qc *fabric.Ctx, cur *groupCursor, tp *VertexPattern) (*sortedRuns, error) {
	e := st.engine
	sr := &sortedRuns{e: e, merge: kMerge[spillRow]{
		less: func(a, b *spillRow) bool { return spillRowLess(a, b, tp) },
	}}
	var buf []spillRow
	for {
		enc, gs, ok, err := cur.next(qc, &st.stats)
		if err != nil {
			sr.close(e)
			return nil, err
		}
		if !ok {
			break
		}
		buf = append(buf, spillRow{enc: enc, gr: groupRowOf(gs, tp.GroupBy, tp.Aggs)})
		if len(buf) >= e.cfg.MaxWorkingSet {
			if err := sr.spill(buf, tp); err != nil {
				sr.close(e)
				return nil, err
			}
			st.stats.GroupSpills++
			st.stats.PeakGroups = max(st.stats.PeakGroups, int64(len(buf)))
			buf = buf[:0]
		}
	}
	st.stats.PeakGroups = max(st.stats.PeakGroups, int64(len(buf)))
	sort.Slice(buf, func(i, j int) bool { return sr.merge.less(&buf[i], &buf[j]) })
	sr.merge.add(buf, nil)
	if len(sr.tables) > 0 {
		// Reading spilled runs back is a merge; a lone in-memory run is a
		// walk of the buffer the sort already paid for.
		sr.work = e.cfg.CostMerge
	}
	return sr, nil
}

func (sr *sortedRuns) nextRow(c *fabric.Ctx, stats *Stats) (GroupRow, bool, error) {
	h, err := sr.merge.head(c, stats)
	if err != nil || h == nil {
		return GroupRow{}, false, err
	}
	sr.merge.pop()
	c.Work(sr.work)
	return h.gr, true, nil
}

func (sr *sortedRuns) resident() int64 { return sr.merge.resident() }

// close drops the spilled run tables — on stream exhaustion, Release,
// expiry, or coordinator crash.
func (sr *sortedRuns) close(e *Engine) {
	for _, name := range sr.tables {
		e.spill.DropTable(name)
	}
	sr.tables = nil
}
