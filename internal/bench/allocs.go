package bench

import (
	"runtime"

	"a1"
	"a1/internal/workload"
)

// Pre-change baseline for the allocation-discipline work: allocs/op on
// the unpooled executor as of PR 7 (fresh maps and slices per row, Marshal
// buffers for byte accounting, per-ID residual reads), measured by this
// same report at test scale before any pooling landed. Kept as constants
// so the Notes always state the reduction against a fixed reference, not
// just against the live NoPooling ablation run.
const (
	baselineTwoHopAllocs  = 37589 // recorded pre-change at test scale, 32 machines
	baselineGroupByAllocs = 66972
	baselineMachines      = 32 // allocs/op shifts with the machine count; compare like with like
)

// Allocs measures GC pressure on the two allocation-dominant query
// shapes of the Zipf workload — the 2-hop ordered traversal and the
// `_groupby` rollup — in Direct mode (real memory, real goroutines),
// with the executor's buffer pooling on and off (Config.NoPooling).
// Columns report allocs/op and bytes/op per path for both configurations
// so the trend table catches allocation regressions the latency columns
// would hide.
func Allocs(spec Spec) (*Report, error) {
	vertices, edges := 3000, 9000
	iters := 100
	if spec.Scale == ScalePaper {
		vertices, edges = 30000, 120000
		iters = 200
	}
	k := 10

	r := &Report{
		ID:     "allocs",
		Title:  "hot-path allocation discipline: allocs/op and bytes/op, pooled vs unpooled (Direct mode)",
		Header: []string{"path(2hop=0,groupby=1)", "allocs_op", "kb_op", "allocs_op_nopool", "kb_op_nopool", "alloc_cut_pct"},
	}

	pathNames := []string{"2-hop Zipf traversal", "_groupby rollup"}
	// [path][pooled=0,unpooled=1] -> allocs/op, bytes/op
	var allocs, bytes [2][2]float64
	for ci, noPool := range []bool{false, true} {
		qcfg := spec.QueryCfg
		qcfg.NoPooling = noPool
		db, err := a1.Open(a1.Options{
			Machines:    spec.Machines,
			Racks:       spec.Racks,
			Mode:        a1.Direct,
			Seed:        spec.Seed,
			QueryConfig: qcfg,
		})
		if err != nil {
			return nil, err
		}
		var g *a1.Graph
		z := workload.NewZipfGraph(vertices, edges, spec.Seed)
		var loadErr error
		db.Run(func(c *a1.Ctx) {
			if loadErr = db.CreateTenant(c, "bing"); loadErr != nil {
				return
			}
			if loadErr = db.CreateGraph(c, "bing", "zipf"); loadErr != nil {
				return
			}
			if g, loadErr = db.OpenGraph(c, "bing", "zipf"); loadErr != nil {
				return
			}
			loadErr = z.Load(c, g)
		})
		if loadErr != nil {
			db.Close()
			return nil, loadErr
		}

		docs := []string{
			z.TopKNeighborsQuery(z.HotCategory(), k),
			z.TopGroupsQuery(k),
		}
		for pi, doc := range docs {
			warm(db, g, doc)
			a, b, err := measureAllocs(db, g, doc, iters)
			if err != nil {
				db.Close()
				return nil, err
			}
			allocs[pi][ci], bytes[pi][ci] = a, b
		}
		db.Close()
	}

	base := []float64{baselineTwoHopAllocs, baselineGroupByAllocs}
	for pi := range pathNames {
		cut := 0.0
		if allocs[pi][1] > 0 {
			cut = 100 * (1 - allocs[pi][0]/allocs[pi][1])
		}
		r.Add(float64(pi), allocs[pi][0], bytes[pi][0]/1024,
			allocs[pi][1], bytes[pi][1]/1024, cut)
		r.Note("%s: %.0f allocs/op pooled vs %.0f unpooled (%.0f%% cut), %.1f KB/op vs %.1f KB/op",
			pathNames[pi], allocs[pi][0], allocs[pi][1], cut,
			bytes[pi][0]/1024, bytes[pi][1]/1024)
		if base[pi] > 0 && spec.Scale == ScaleTest && spec.Machines == baselineMachines {
			r.Note("%s: pre-change baseline (PR 7 executor, test scale, %d machines) was %.0f allocs/op; this build pools to %.0f (%.0f%% reduction)",
				pathNames[pi], baselineMachines, base[pi], allocs[pi][0], 100*(1-allocs[pi][0]/base[pi]))
		}
	}
	r.Note("_groupby rollup is a count-only grouping on the indexed category field, so it runs as an IndexGroupScan (no vertex reads, no worker runs); the 66972 baseline measured the worker path")
	if spec.Scale != ScaleTest || spec.Machines != baselineMachines {
		r.Note("pre-change baselines (37589 / 66972 allocs/op) were recorded at test scale on %d machines; this run used a different shape, so no reduction is stated", baselineMachines)
	}
	r.Note("methodology: runtime.MemStats deltas over %d queries per point after warmup + GC; Direct mode so counts are real mallocs, not simulator bookkeeping", iters)
	return r, nil
}

// measureAllocs runs iters queries and returns the per-query Mallocs and
// TotalAlloc deltas. The GC before the first ReadMemStats settles warmup
// garbage so the delta reflects steady-state query work.
func measureAllocs(db *a1.DB, g *a1.Graph, doc string, iters int) (allocsOp, bytesOp float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var qerr error
	db.Run(func(c *a1.Ctx) {
		for i := 0; i < iters; i++ {
			if _, e := db.Query(c, g, doc); e != nil {
				qerr = e
				return
			}
		}
	})
	if qerr != nil {
		return 0, 0, qerr
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(iters),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(iters), nil
}
