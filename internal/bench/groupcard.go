package bench

import (
	"fmt"
	"strconv"

	"a1"
	"a1/internal/workload"
)

// mapAccumulate is the frozen groupcard rows (cfg 0 and cfg 3) of the
// retired map-accumulate coordinator, which merged every group into one
// map before paging: unordered it held all 3000 groups; ordered under the
// small MaxWorkingSet it fast-failed with ErrWorkingSet (completed 0).
// Measured by this report at commit 47d3ebd.
var mapAccumulate = map[frozenShape][2][]float64{
	{10, 3}: {{0, 3000, 0, 121.9052734375, 0, 0, 1}, {3, 0, 0, 0, 0, 0, 0}},
	{32, 4}: {{0, 3000, 0, 131.064453125, 0, 0, 1}, {3, 0, 0, 0, 0, 0, 0}},
}

// GroupCard measures high-cardinality grouped aggregation on the Zipf
// workload grouped by `score` (unique per vertex, so every vertex is its
// own group). It contrasts the streaming merge with the retired
// map-accumulate coordinator — merge every group into one map before
// paging — whose rows are frozen baselines (mapAccumulate):
//
//	cfg 0  map-accumulate, unordered (frozen)
//	cfg 1  streaming merge, unordered
//	cfg 2  streaming merge + `_having` pushdown (workers prove failures)
//	cfg 3  map-accumulate, aggregate `_orderby`, small MaxWorkingSet (frozen)
//	cfg 4  streaming merge,  aggregate `_orderby`, small MaxWorkingSet
//
// peak_groups is Stats.PeakGroups — the most group entries resident at
// the coordinator at once. Streaming holds O(page + machines·GroupChunk)
// instead of O(total groups); `_having` pushdown cuts GroupsShipped and
// BytesShipped before the fabric; and cfg 3 vs 4 shows the ordered form
// completing via objectstore spill runs where the map path fast-failed
// past MaxWorkingSet.
func GroupCard(spec Spec) (*Report, error) {
	vertices, edges := 3000, 9000
	if spec.Scale == ScalePaper {
		vertices, edges = 30000, 120000
	}
	// Small enough that the ordered form overflows it (total groups ==
	// vertices), large enough that no single worker's partial set does.
	smallWS := vertices / 6

	r := &Report{
		ID:     "groupcard",
		Title:  "high-cardinality _groupby: streaming merge vs map-accumulate (groups == vertices)",
		Header: []string{"cfg", "peak_groups", "groups_shipped", "kb_shipped", "groups_filtered", "spills", "completed"},
	}

	unordered := `{"_type": "node", "_groupby": "score", "_select": ["_count(*)", "_max(score)"]}`
	having := `{"_type": "node", "_groupby": "score", "_select": ["_count(*)", "_max(score)"],
		"_having": {"_max(score)": {"_lt": ` + strconv.Itoa(vertices/5) + `}}}`
	ordered := `{"_type": "node", "_groupby": "score", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`

	type cfg struct {
		id    int
		doc   string
		maxWS int // 0 = default
	}
	cfgs := []cfg{
		{1, unordered, 0},
		{2, having, 0},
		{4, ordered, smallWS},
	}
	frozen, ok := mapAccumulate[frozenShapeOf(spec)]
	if ok {
		r.Add(frozen[0]...)
	} else {
		r.Note("no frozen map-accumulate rows (cfg 0, 3) for this run shape: they were recorded at test scale, seed 1, on 10 machines/3 racks and 32 machines/4 racks")
	}
	live := map[int][]float64{} // cfg id -> its row

	for _, cf := range cfgs {
		if ok && cf.id == 4 {
			r.Add(frozen[1]...)
			r.Note("ordered + MaxWorkingSet=%d: map-accumulate fast-failed (ErrWorkingSet) at %d groups", smallWS, vertices)
		}
		qcfg := spec.QueryCfg
		qcfg.GroupChunk = 64
		qcfg.PageSize = 100
		if cf.maxWS > 0 {
			qcfg.MaxWorkingSet = cf.maxWS
		}
		db, err := a1.Open(a1.Options{
			Machines:    spec.Machines,
			Racks:       spec.Racks,
			Mode:        a1.Sim,
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

		var groups int
		var peak, shipped, bytes, filtered, spills int64
		var execErr error
		db.Run(func(c *a1.Ctx) {
			res, err := db.Query(c, g, cf.doc)
			for {
				if err != nil {
					execErr = err
					return
				}
				groups += len(res.Groups)
				if res.Stats.PeakGroups > peak {
					peak = res.Stats.PeakGroups
				}
				shipped += res.Stats.GroupsShipped
				bytes += res.Stats.BytesShipped
				filtered += res.Stats.GroupsFiltered
				spills += res.Stats.GroupSpills
				if res.Continuation == "" {
					return
				}
				res, err = db.Fetch(c, res.Continuation)
			}
		})
		db.Close()
		if execErr != nil {
			return nil, execErr
		}

		row := []float64{float64(cf.id), float64(peak), float64(shipped), float64(bytes) / 1024,
			float64(filtered), float64(spills), 1}
		r.Add(row...)
		live[cf.id] = row
		switch cf.id {
		case 1:
			held := ""
			if ok {
				held = fmt.Sprintf(" (map path held %.0f)", frozen[0][1])
			}
			r.Note("streaming unordered: peak %d resident groups for %d total%s — O(page + machines·chunk)",
				peak, groups, held)
		case 2:
			if base := live[1]; base[3] > 0 {
				r.Note("_having pushdown: %d of %d groups proven failing at workers (%.0f -> %.0f KB shipped, %.0f -> %.0f states)",
					filtered, vertices, base[3], row[3], base[2], float64(shipped))
			}
		case 4:
			r.Note("ordered + MaxWorkingSet=%d: streaming completes the same query via %d objectstore spill runs, %d groups returned",
				smallWS, spills, groups)
		}
	}
	if ok {
		r.Note("cfg 0 and 3 are frozen: the map-accumulate coordinator was retired after commit 47d3ebd, where this report measured them on this shape (%d machines, %d racks, test scale, seed 1)",
			spec.Machines, spec.Racks)
	}
	return r, nil
}
