package main

// The traced run: per-layer numbers from outside the program. It reads the
// counters the public API returns, then replays a seeded sample of the
// workload's requests with spans around each call into a layer (the tier,
// QueryAt, ExplainPlan, statistics) and around the benchmark's own calls
// into each module's exported functions, recorded as the request's
// children.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"a1"
	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/farm"
	"a1/internal/workload"
)

// replayOps is how many sampled requests the traced run replays.
const replayOps = 48

// span is one timed call: a name, a start, an end, a parent (-1 for a
// request's root) and the request it belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer keeps spans in memory. With on false it only times calls, so the
// same replay can run untraced to measure the tracing overhead.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	req   int
}

// do runs fn inside a span named name and returns its duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	if !t.on {
		t0 := time.Now()
		fn()
		return time.Since(t0)
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: t.req})
	t.stack = append(t.stack, id)
	start := time.Now()
	fn()
	end := time.Now()
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id].End = end.Sub(t.t0).Nanoseconds()
	return end.Sub(start)
}

// selfByLayer sums each layer's self time: a span's duration minus the
// part its children cover. The layer is the span name up to the first dot.
func selfByLayer(spans []span) map[string]time.Duration {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.Parent < 0 {
			continue // the request root is the benchmark's own
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += time.Duration(s.End - s.Start - child[i])
	}
	return out
}

// probe holds what the module micro-calls run on: the workload's own
// vertices and a B-tree built with the workload's key shape.
type probe struct {
	typ    string
	label  string
	schema *a1.Schema
	ids    []string
	ptrs   []a1.VertexPtr
	keys   [][]byte
	tree   *farm.BTree
	// scanIndex enumerates up to limit index entries.
	scanIndex func(tx *a1.Tx, limit int) (int, error)
	// edge creates (del=false) or deletes the probe edge of request r.
	edge func(tx *a1.Tx, r int, del bool) error
}

const (
	batchVertices = 256
	btreeEntries  = 4096
	scanEntries   = 1024
)

func newProbe(e *env, c *a1.Ctx) (*probe, error) {
	p := &probe{}
	switch ref := e.ref.(type) {
	case *kgRef:
		p.typ, p.label, p.schema = "entity", "actor.film", workload.EntitySchema
		tx := e.db.ReadTransaction(c)
		r := refReader{e.g, tx}
		for i := 0; i < e.keySpace; i++ {
			vp, err := r.lookup("entity", actorID(i))
			if err != nil {
				return nil, err
			}
			p.ids = append(p.ids, actorID(i))
			p.ptrs = append(p.ptrs, vp)
		}
		p.scanIndex = func(tx *a1.Tx, limit int) (int, error) {
			n := 0
			err := e.g.ScanVerticesByType(tx, "entity", func(bond.Value, a1.VertexPtr) bool { n++; return n < limit })
			return n, err
		}
		if err := e.g.CreateEdgeType(c, "bench.probe", nil); err != nil {
			return nil, err
		}
		p.edge = func(tx *a1.Tx, r int, del bool) error {
			src, dst := p.ptrs[r%len(p.ptrs)], p.ptrs[(r+1)%len(p.ptrs)]
			if del {
				_, err := e.g.DeleteEdge(tx, src, "bench.probe", dst)
				return err
			}
			return e.g.CreateEdge(tx, src, "bench.probe", dst, a1.Null)
		}
		for _, id := range p.ids {
			p.keys = append(p.keys, bond.OrderedEncode(nil, a1.Str(id)))
		}
	case *zipfRef:
		p.typ, p.label, p.schema = "node", "link", workload.ZipfSchema
		for i := range ref.ptr {
			p.ids = append(p.ids, ref.z.VertexID(i))
		}
		p.ptrs = ref.ptr
		hot := ref.z.HotCategory()
		p.scanIndex = func(tx *a1.Tx, limit int) (int, error) {
			n := 0
			err := e.g.IndexScan(tx, "node", "category", a1.Str(hot), func(a1.VertexPtr) bool { n++; return n < limit })
			return n, err
		}
		// Probe edges go onto the heaviest hub from vertices not already
		// linked to it, so its spilled in-list takes the put and delete.
		var srcs []int
		for i := zipfHubs; i < len(ref.ptr); i++ {
			if !ref.hubIn[0][i] {
				srcs = append(srcs, i)
			}
		}
		p.edge = func(tx *a1.Tx, r int, del bool) error {
			src := ref.ptr[srcs[r%len(srcs)]]
			if del {
				_, err := e.g.DeleteEdge(tx, src, "link", ref.ptr[0])
				return err
			}
			return e.g.CreateEdge(tx, src, "link", ref.ptr[0], a1.Null)
		}
		for i := range ref.ptr {
			k := bond.OrderedEncode(nil, a1.I64(ref.score[i]))
			p.keys = append(p.keys, binary.BigEndian.AppendUint64(k, uint64(ref.ptr[i].Addr)))
		}
	default:
		return nil, fmt.Errorf("no probe for %T", e.ref)
	}
	// The benchmark's own B-tree, with btreeEntries of the workload's keys
	// in key order spread over the key space.
	if len(p.keys) > btreeEntries {
		stride := len(p.keys) / btreeEntries
		var ks [][]byte
		for i := 0; i < btreeEntries; i++ {
			ks = append(ks, p.keys[i*stride])
		}
		p.keys = ks
	}
	tx := e.db.Farm().CreateTransaction(c)
	tree, err := farm.CreateBTree(tx, 0)
	if err != nil {
		return nil, err
	}
	if err := tx.Commit(); err != nil {
		return nil, err
	}
	p.tree = tree
	val := make([]byte, 12)
	for i := 0; i < len(p.keys); i += 128 {
		err := e.txn(c, func(tx *a1.Tx) error {
			for j := i; j < i+128 && j < len(p.keys); j++ {
				if err := tree.Put(tx, p.keys[j], val); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// sample holds the traced run's per-call timings.
type sample struct {
	frontendSelf, parse, statsSum []float64
	exec                          [numClasses][]float64
	lookup, txRead, readTx        []float64
	readPerVertex, enumPerEdge    []float64
	scanPerEntry, unmarshal       []float64
	marshal, update, commit       []float64
	edgePair, rpc, parallel       []float64
	btGet, btScan, btPut          []float64
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ns(d time.Duration) float64 { return float64(d.Nanoseconds()) }

// replay runs the sampled requests once under t and returns its wall time.
func replay(e *env, c *a1.Ctx, p *probe, ops []op, t *tracer, s *sample) (time.Duration, error) {
	start := time.Now()
	var firstErr error
	fail := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for r, o := range ops {
		t.req = r
		t.do("request", func() {
			// A plan-cache hit on both paths, so their difference is the
			// tier's own work.
			_, err := queryFirstPage(e, c, o.doc, e.db.QueryAt)
			fail(err)
			fd := t.do("frontend.tier", func() {
				_, err := queryFirstPage(e, c, o.doc, func(c *a1.Ctx, g *a1.Graph, doc string) (*a1.Result, error) {
					return e.db.Query(c, g, doc)
				})
				fail(err)
			})
			qd := t.do("query.query_at", func() {
				_, err := queryFirstPage(e, c, o.doc, e.db.QueryAt)
				fail(err)
			})
			s.frontendSelf = append(s.frontendSelf, us(fd-qd))
			s.exec[o.class] = append(s.exec[o.class], us(qd))
			s.parse = append(s.parse, us(t.do("query.explain_plan", func() {
				_, err := e.db.ExplainPlan(c, e.g, o.doc)
				fail(err)
			})))
			s.statsSum = append(s.statsSum, us(t.do("stats.summary", func() { e.db.Stats(c, e.g) })))
			layerCalls(e, c, p, r, t, s, fail)
		})
	}
	return time.Since(start), firstErr
}

// queryFirstPage runs doc with run and releases any continuation.
func queryFirstPage(e *env, c *a1.Ctx, doc string, run func(*a1.Ctx, *a1.Graph, string) (*a1.Result, error)) (*a1.Result, error) {
	res, err := run(c, e.g, doc)
	if err != nil {
		return nil, err
	}
	if res.Continuation != "" {
		return res, e.db.Release(c, res.Continuation)
	}
	return res, nil
}

// layerCalls times the module micro-calls for replayed request r.
func layerCalls(e *env, c *a1.Ctx, p *probe, r int, t *tracer, s *sample, fail func(error)) {
	n := len(p.ptrs)
	vp := p.ptrs[(r*7919)%n]
	id := p.ids[(r*7919)%n]
	var tx *a1.Tx
	s.readTx = append(s.readTx, ns(t.do("farm.read_tx", func() { tx = e.db.ReadTransaction(c) })))
	s.lookup = append(s.lookup, ns(t.do("core.lookup", func() {
		_, ok, err := e.g.LookupVertex(tx, p.typ, a1.Str(id))
		if err == nil && !ok {
			err = fmt.Errorf("lookup %s: not found", id)
		}
		fail(err)
	})))
	s.txRead = append(s.txRead, ns(t.do("farm.tx_read", func() { _, err := tx.Read(vp); fail(err) })))
	edges := 0
	d := t.do("core.enum_edges", func() {
		fail(e.g.EnumerateEdges(tx, vp, a1.DirOut, p.label, func(a1.HalfEdge) bool { edges++; return true }))
	})
	if edges > 0 {
		s.enumPerEdge = append(s.enumPerEdge, ns(d)/float64(edges))
	}
	batch := make([]a1.VertexPtr, batchVertices)
	for i := range batch {
		batch[i] = p.ptrs[(r*batchVertices+i)%n]
	}
	var vs []*core.Vertex
	d = t.do("core.read_vertices", func() {
		var err error
		vs, err = e.g.ReadVertices(tx, batch)
		fail(err)
	})
	s.readPerVertex = append(s.readPerVertex, ns(d)/batchVertices)
	entries := 0
	d = t.do("core.index_scan", func() {
		var err error
		entries, err = p.scanIndex(tx, scanEntries)
		fail(err)
	})
	if entries > 0 {
		s.scanPerEntry = append(s.scanPerEntry, ns(d)/float64(entries))
	}
	var blobs [][]byte
	d = t.do("bond.marshal", func() {
		for _, v := range vs {
			if v == nil {
				continue
			}
			b, err := bond.MarshalStruct(p.schema, v.Data)
			fail(err)
			blobs = append(blobs, b)
		}
	})
	if len(blobs) > 0 {
		s.marshal = append(s.marshal, ns(d)/float64(len(blobs)))
		d = t.do("bond.unmarshal", func() {
			for _, b := range blobs {
				_, err := bond.UnmarshalStruct(p.schema, b)
				fail(err)
			}
		})
		s.unmarshal = append(s.unmarshal, ns(d)/float64(len(blobs)))
	}
	s.rpc = append(s.rpc, ns(t.do("fabric.rpc", func() {
		fail(c.RPC(a1.MachineID(1+r%(machines-1)), 64, func(*a1.Ctx) (int, error) { return 64, nil }))
	})))
	s.parallel = append(s.parallel, us(t.do("fabric.parallel", func() {
		c.Parallel(machines, func(int, *a1.Ctx) {})
	})))
	key := p.keys[(r*31)%len(p.keys)]
	s.btGet = append(s.btGet, ns(t.do("farm.btree_get", func() {
		_, ok, err := p.tree.Get(tx, key)
		if err == nil && !ok {
			err = fmt.Errorf("btree key %x missing", key)
		}
		fail(err)
	})))
	scanned := 0
	d = t.do("farm.btree_scan", func() {
		fail(p.tree.Scan(tx, key, nil, func(_, _ []byte) bool { scanned++; return scanned < batchVertices }))
	})
	if scanned > 0 {
		s.btScan = append(s.btScan, ns(d)/float64(scanned))
	}
	// Writes, uncontended: a B-tree put, a vertex rewrite with its commit,
	// and an edge create/delete pair.
	wtx := e.db.Farm().CreateTransaction(c)
	s.btPut = append(s.btPut, us(t.do("farm.btree_put", func() { fail(p.tree.Put(wtx, key, []byte("probe-value!"))) })))
	fail(wtx.Commit())
	if len(vs) > 0 && vs[0] != nil {
		data := vs[0].Data
		s.update = append(s.update, us(t.do("core.update_vertex", func() {
			utx := e.db.Farm().CreateTransaction(c)
			err := e.g.UpdateVertex(utx, batch[0], data)
			if err != nil {
				utx.Abort()
				fail(err)
				return
			}
			s.commit = append(s.commit, us(t.do("farm.commit", func() { fail(utx.Commit()) })))
		})))
	}
	s.edgePair = append(s.edgePair, us(t.do("core.edge_pair", func() {
		fail(e.txn(c, func(tx *a1.Tx) error { return p.edge(tx, r, false) }))
		fail(e.txn(c, func(tx *a1.Tx) error { return p.edge(tx, r, true) }))
	})))
}

// traced computes the per-layer ledger after the closed-loop run res.
func traced(e *env, spec *workloadSpec, o options, res *loopResult) (map[string]metric, error) {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	per := func(x int64) float64 { return float64(x) / float64(max(res.completed, 1)) }

	qs, rows, pages, local := e.acc.snapshot()
	put("query.plan_cache_hit_frac", float64(res.planHits)/float64(max(res.planHits+res.planMisses, 1)), "frac")
	put("query.vertices_read", per(qs.VerticesRead), "count")
	put("query.edges_visited", per(qs.EdgesVisited), "count")
	put("query.rpcs", per(qs.RPCs), "count")
	put("query.remote_reads", per(qs.RemoteReads), "count")
	put("query.rows_shipped", per(qs.RowsShipped), "count")
	put("query.bytes_shipped", per(qs.BytesShipped), "bytes")
	put("query.groups_shipped", per(qs.GroupsShipped), "count")
	put("query.peak_groups", per(qs.PeakGroups), "count")
	put("query.index_filtered", per(qs.IndexFiltered), "count")
	put("query.local_frac", local/float64(max(pages, 1)), "frac")
	put("query.rows_per_vertex_read", float64(rows)/float64(max(qs.VerticesRead, 1)), "ratio")
	fetchUS := 0.0
	if n := e.fetchPages.Load(); n > 0 {
		fetchUS = float64(e.fetchNanos.Load()) / 1e3 / float64(n)
	}
	put("query.fetch_us_per_page", fetchUS, "us")
	put("fabric.rpcs", per(res.fabric.rpcs), "count")
	put("fabric.remote_reads", per(res.fabric.remoteReads), "count")
	put("fabric.remote_writes", per(res.fabric.remoteWrites), "count")
	put("fabric.bytes_read", per(res.fabric.bytesRead), "bytes")
	put("fabric.bytes_written", per(res.fabric.bytesWritten), "bytes")
	put("runtime.alloc_bytes", per(int64(res.allocBytes)), "bytes")
	put("runtime.gc_cycles_per_kop", 1000*per(int64(res.numGC)), "count")
	put("runtime.gc_cpu_frac", res.gcCPU, "frac")

	put("farm.tx_attempts_per_commit", float64(e.txAttempts.Load())/float64(max(e.txCommits.Load(), 1)), "ratio")

	// Replay a seeded sample of the workload's requests.
	var out error
	e.db.Run(func(c *a1.Ctx) {
		p, err := newProbe(e, c)
		if err != nil {
			out = err
			return
		}
		if e.gcCalls.Load() == 0 {
			e.gcVersions(c) // the traffic never ran GC
		}
		rc := newClient(e, clients+1, o.seed^0x7ace)
		// Queries replay through each entry point; the write path is timed
		// by the micro-calls every replayed request makes.
		var ops []op
		for len(ops) < replayOps {
			if o := spec.next(e, rc); o.doc != "" {
				ops = append(ops, o)
			}
		}
		// A discarded pass warms the sample's plans, then untraced, traced,
		// untraced: the overhead is the traced pass against the mean of
		// the two untraced ones.
		var s0, s1 sample
		plain := &tracer{}
		if _, err := replay(e, c, p, ops, plain, &s0); err != nil {
			out = err
			return
		}
		u1, err := replay(e, c, p, ops, plain, &s0)
		if err != nil {
			out = err
			return
		}
		tr := &tracer{on: true, t0: time.Now()}
		tt, err := replay(e, c, p, ops, tr, &s1)
		if err != nil {
			out = err
			return
		}
		u2, err := replay(e, c, p, ops, plain, &s0)
		if err != nil {
			out = err
			return
		}
		untraced := (u1 + u2) / 2
		put("trace.overhead_frac", float64(tt-untraced)/float64(untraced), "frac")
		self := selfByLayer(tr.spans)
		for _, layer := range []string{"frontend", "query", "stats", "core", "farm", "fabric", "bond"} {
			put("trace.self_us."+layer, us(self[layer])/float64(len(ops)), "us")
		}
		if err := writeSpans(traceFile(spec.name, o.seed), tr.spans); err != nil {
			fmt.Fprintf(os.Stderr, "servebench: spans not written: %v\n", err)
		}

		put("frontend.self_us", median(s1.frontendSelf), "us")
		put("query.parse_plan_us", median(s1.parse), "us")
		for cl := point; cl <= scan; cl++ {
			put("query.exec_us."+cl.String(), median(s1.exec[cl]), "us")
		}
		put("stats.summary_us", median(s1.statsSum), "us")
		put("core.read_vertices_ns_per_vertex", median(s1.readPerVertex), "ns")
		put("core.lookup_ns", median(s1.lookup), "ns")
		put("core.enum_edges_ns_per_edge", median(s1.enumPerEdge), "ns")
		put("core.index_scan_ns_per_entry", median(s1.scanPerEntry), "ns")
		put("core.update_vertex_us", median(s1.update), "us")
		put("core.edge_pair_us", median(s1.edgePair), "us")
		put("farm.read_tx_ns", median(s1.readTx), "ns")
		put("farm.tx_read_ns", median(s1.txRead), "ns")
		put("farm.commit_us", median(s1.commit), "us")
		put("farm.btree_get_ns", median(s1.btGet), "ns")
		put("farm.btree_scan_ns_per_entry", median(s1.btScan), "ns")
		put("farm.btree_put_us", median(s1.btPut), "us")
		put("fabric.rpc_ns", median(s1.rpc), "ns")
		put("fabric.parallel_us", median(s1.parallel), "us")
		put("bond.unmarshal_ns_per_vertex", median(s1.unmarshal), "ns")
		put("bond.marshal_ns_per_vertex", median(s1.marshal), "ns")
	})
	if out != nil {
		return nil, out
	}
	calls := max(e.gcCalls.Load(), 1)
	put("farm.gc_ms_per_call", float64(e.gcNanos.Load())/1e6/float64(calls), "ms")
	put("farm.gc_freed_per_call", float64(e.gcFreed.Load())/float64(calls), "count")
	return m, nil
}

// writeSpans dumps the spans as JSON.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
