package query

import (
	"sort"

	"a1/internal/bond"
	"a1/internal/fabric"
)

// Result shaping: distributed partial aggregation (scalar and grouped) and
// ordered top-K merging. Each worker batch reduces its slice of the
// terminal frontier to scalars (aggregates), per-group partial states
// (grouped aggregates), or a pruned, locally ordered row prefix
// (orderby+limit); the coordinator merges the shipped partials. This keeps
// the bytes returned per RPC proportional to the answer, not to the
// frontier (paper §3.4 ships operators to data for the same reason).

// aggState is one aggregate's partial result for a batch of vertices. Only
// the fields the aggregate kind needs are populated.
type aggState struct {
	count int64 // rows counted (AggCount) or numeric values seen (AggSum/AggAvg)

	sum     float64 // running sum as float
	isum    int64   // exact integer sum while no fractional value was seen
	fracSum bool    // a float/double contributed; report the float sum

	mm     bond.Value // current min or max
	seenMM bool
}

// accumAgg folds one vertex's data into an aggregate state.
func accumAgg(st *aggState, a Aggregate, data bond.Value, schema *bond.Schema) {
	if a.Kind == AggCount {
		st.count++
		return
	}
	v, ok := resolvePath(data, a.Path, schema)
	if !ok || v.IsNull() {
		return
	}
	switch a.Kind {
	case AggSum, AggAvg:
		if !isNumeric(v.Kind()) {
			return
		}
		st.count++
		st.sum += asFloat(v)
		switch v.Kind() {
		case bond.KindFloat, bond.KindDouble:
			st.fracSum = true
		case bond.KindUInt64:
			st.isum += int64(v.AsUint())
		default:
			st.isum += v.AsInt()
		}
	case AggMin:
		if !st.seenMM {
			st.mm, st.seenMM = v, true
		} else if cmp, ok := compareValues(v, st.mm); ok && cmp < 0 {
			st.mm = v
		}
	case AggMax:
		if !st.seenMM {
			st.mm, st.seenMM = v, true
		} else if cmp, ok := compareValues(v, st.mm); ok && cmp > 0 {
			st.mm = v
		}
	}
}

// mergeAggStates folds a batch's partial aggregates into the coordinator's
// running states (dst and src are parallel to aggs).
func mergeAggStates(dst, src []aggState, aggs []Aggregate) {
	for i := range src {
		d, s := &dst[i], &src[i]
		d.count += s.count
		d.sum += s.sum
		d.isum += s.isum
		d.fracSum = d.fracSum || s.fracSum
		if !s.seenMM {
			continue
		}
		if !d.seenMM {
			d.mm, d.seenMM = s.mm, true
			continue
		}
		cmp, ok := compareValues(s.mm, d.mm)
		if !ok {
			continue
		}
		if (aggs[i].Kind == AggMin && cmp < 0) || (aggs[i].Kind == AggMax && cmp > 0) {
			d.mm = s.mm
		}
	}
}

// finalizeAggs converts merged states into the Result's aggregate values.
func finalizeAggs(states []aggState, aggs []Aggregate) map[string]bond.Value {
	out := make(map[string]bond.Value, len(aggs))
	for i, a := range aggs {
		out[a.Raw] = finalAggValue(&states[i], a)
	}
	return out
}

// Grouped aggregates: workers reduce their batches to per-group partial
// states keyed by the group key's order-preserving encoding, the
// coordinator merges states group by group, and only ⟨key, partials⟩ pairs
// — never rows — cross the fabric.

// groupState is one group's partial aggregates plus its key values.
type groupState struct {
	keys []bond.Value
	aggs []aggState
}

// appendGroupKey appends one key component's canonical encoding. Scalar
// kinds use the order-preserving index encoding, so byte-sorting encoded
// keys yields value-sorted groups; composite values (lists, maps) group by
// their serialized image — deterministic, though byte order is not value
// order for them.
func appendGroupKey(b []byte, v bond.Value) []byte {
	switch v.Kind() {
	case bond.KindNone, bond.KindBool, bond.KindInt32, bond.KindInt64, bond.KindDate,
		bond.KindUInt64, bond.KindFloat, bond.KindDouble, bond.KindString, bond.KindBlob:
		return bond.OrderedEncode(b, v)
	default:
		b = append(b, 0xFE)
		return bond.AppendMarshal(b, v)
	}
}

// accumGroup folds one vertex into a batch's group states. The group key
// is encoded into scratch (returned for reuse across the batch loop) and
// only materialized — key values and map entry — the first time a group
// is seen: the steady state of a skewed grouping is a map hit, which this
// way costs zero allocations.
func accumGroup(groups map[string]*groupState, by []FieldPath, aggs []Aggregate, data bond.Value, schema *bond.Schema, scratch []byte) []byte {
	enc := scratch[:0]
	for _, fp := range by {
		v, ok := resolvePath(data, fp, schema)
		if !ok {
			v = bond.Null
		}
		enc = appendGroupKey(enc, v)
	}
	gs := groups[string(enc)] // map index conversion: no allocation
	if gs == nil {
		keys := make([]bond.Value, len(by))
		for i, fp := range by {
			v, ok := resolvePath(data, fp, schema)
			if !ok {
				v = bond.Null
			}
			keys[i] = v
		}
		gs = &groupState{keys: keys, aggs: make([]aggState, len(aggs))}
		groups[string(enc)] = gs
	}
	for i := range aggs {
		accumAgg(&gs.aggs[i], aggs[i], data, schema)
	}
	return enc
}

// GroupRow is one `_groupby` result group: its key values (keyed by the
// `_groupby` entry verbatim) and its finalized aggregates (keyed by the
// `_select` entry verbatim).
type GroupRow struct {
	Keys       map[string]bond.Value
	Aggregates map[string]bond.Value
}

// groupRowOf finalizes one merged group state into its result group.
func groupRowOf(gs *groupState, by []FieldPath, aggs []Aggregate) GroupRow {
	gr := GroupRow{
		Keys:       make(map[string]bond.Value, len(by)),
		Aggregates: finalizeAggs(gs.aggs, aggs),
	}
	for i, fp := range by {
		gr.Keys[fp.Raw] = gs.keys[i]
	}
	return gr
}

// sortKey is one resolved `_orderby` key of a row.
type sortKey struct {
	val bond.Value
	ok  bool
}

// rowLess orders terminal rows by their `_orderby` keys, most significant
// first. Rows missing a key sort after keyed rows on that component; ties
// (and incomparable kinds) fall through to the next key and finally break
// on the stable vertex address so distributed merges are deterministic.
func rowLess(a, b *Row, orders []OrderBy) bool {
	for i := range orders {
		var ak, bk sortKey
		if i < len(a.keys) {
			ak = a.keys[i]
		}
		if i < len(b.keys) {
			bk = b.keys[i]
		}
		if ak.ok != bk.ok {
			return ak.ok
		}
		if !ak.ok {
			continue
		}
		if cmp, ok := compareValues(ak.val, bk.val); ok && cmp != 0 {
			if orders[i].Desc {
				return cmp > 0
			}
			return cmp < 0
		}
	}
	return a.Vertex.Addr < b.Vertex.Addr
}

// sortRows orders rows by their `_orderby` keys.
func sortRows(rows []Row, orders []OrderBy) {
	sort.Slice(rows, func(i, j int) bool { return rowLess(&rows[i], &rows[j], orders) })
}

// topK sorts rows and keeps the best k — the pruning step both workers
// (before shipping) and the coordinator (while merging) apply when
// _orderby and _limit are present. The pruned suffix is released back to
// the buffer pool: every call site prunes rows it built itself (worker
// batches) or rows whose only copies live in the list being pruned (the
// coordinator merge), so the dropped rows have no other referent.
func topK(bufs *execBufs, rows []Row, orders []OrderBy, k int) []Row {
	sortRows(rows, orders)
	if len(rows) > k {
		bufs.releaseRows(rows[k:])
		rows = rows[:k]
	}
	return rows
}

// mergeSortedRows streams the coordinator's k-way merge over per-machine
// ordered partial results (OrderedTraverse), emitting the global top k.
// Each input list is already totally ordered by rowLess (ties broken on the
// vertex address, and addresses never repeat across machines), so
// repeatedly taking the least head reproduces exactly what sorting the
// concatenation would — without ever materializing it.
func mergeSortedRows(bufs *execBufs, lists [][]Row, orders []OrderBy, k int) []Row {
	m := kMerge[Row]{
		runs: make([]mergeRun[Row], 0, len(lists)),
		less: func(a, b *Row) bool { return rowLess(a, b, orders) },
	}
	total := 0
	for _, l := range lists {
		m.add(l, nil)
		total += len(l)
	}
	out := make([]Row, 0, min(total, k))
	for len(out) < k {
		h := m.buffered() // the lists are whole runs: nothing to pull
		if h == nil {
			break
		}
		out = append(out, *h)
		m.pop()
	}
	// Rows the merge never consumed can't reach the result; hand their
	// buffers back. The consumed prefix escaped into out and is left alone.
	for i := range m.runs {
		r := &m.runs[i]
		bufs.releaseRows(r.buf[r.pos:])
	}
	return out
}

// kMerge is the engine's one k-way merge: sorted runs, each a buffered
// chunk that its pull function refills when drained, merged by a caller
// comparator. The OrderedTraverse row merge, the streamed group-run merge
// and the spilled-group merge are all instances. The head scan is linear
// in the run count: runs are bounded by the cluster size (or the spill
// count), so a heap would not pay for itself. Taking a head allocates
// nothing; only pulls allocate, once per chunk.
type kMerge[T any] struct {
	runs []mergeRun[T]
	less func(a, b *T) bool
	best int // run holding the head last returned by head
}

// mergeRun is one sorted input of a kMerge.
type mergeRun[T any] struct {
	buf []T
	pos int
	// pull fetches the run's next chunk and whether more follow it; nil
	// once the run is fully buffered.
	pull func(c *fabric.Ctx, stats *Stats) ([]T, bool, error)
}

func (m *kMerge[T]) add(buf []T, pull func(*fabric.Ctx, *Stats) ([]T, bool, error)) {
	m.runs = append(m.runs, mergeRun[T]{buf: buf, pull: pull})
}

// head refills drained runs, then returns the least head, or nil once
// every run is exhausted. The pointer stays valid until the next pull.
func (m *kMerge[T]) head(c *fabric.Ctx, stats *Stats) (*T, error) {
	for i := range m.runs {
		r := &m.runs[i]
		for r.pos >= len(r.buf) && r.pull != nil {
			chunk, more, err := r.pull(c, stats)
			if err != nil {
				return nil, err
			}
			r.buf, r.pos = chunk, 0
			if !more {
				r.pull = nil
			}
		}
	}
	return m.buffered(), nil
}

// buffered returns the least head among the chunks already buffered,
// pulling nothing. Right after head it is exact for folding equal keys:
// every run was refilled, a run the fold consumed from cannot repeat the
// key (keys within a run are unique), and the others are still buffered.
func (m *kMerge[T]) buffered() *T {
	var h *T
	for i := range m.runs {
		r := &m.runs[i]
		if r.pos < len(r.buf) && (h == nil || m.less(&r.buf[r.pos], h)) {
			h, m.best = &r.buf[r.pos], i
		}
	}
	return h
}

// pop consumes the head last returned by head or buffered.
func (m *kMerge[T]) pop() { m.runs[m.best].pos++ }

// resident counts the entries buffered across the runs.
func (m *kMerge[T]) resident() int64 {
	var n int64
	for i := range m.runs {
		n += int64(len(m.runs[i].buf) - m.runs[i].pos)
	}
	return n
}
