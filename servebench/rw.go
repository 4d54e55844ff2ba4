package main

// zipf_rw: half of each client's requests are committed writes to Zipf-hot
// vertices and to hub edge lists, the other half read the same keys and
// the secondary index the writes move.

import (
	"fmt"

	"a1"
	"a1/internal/workload"
)

const (
	zipfRWPointQ = `{"id": "$id", "_select": ["id", "category", "score"]}`
	// scoreBase starts the monotonic scores above every loaded score.
	scoreBase = 1 << 30
)

// rwState is one client's read-your-writes bookkeeping.
type rwState struct {
	// seen is the highest score this client wrote or read per vertex; a
	// later read returning less breaks read-your-writes or monotonicity.
	seen map[int]int64
	// pending is an edge this client created and deletes next.
	pending    bool
	pendingSrc int
	pendingHub int
	cats       *zipfChooser
}

func newRWState() *rwState { return &rwState{seen: map[int]int64{}} }

var zipfRW = &workloadSpec{
	name: "zipf_rw",
	load: func(e *env, c *a1.Ctx) error {
		return loadZipf(e, c, workload.NewZipfGraph(zipfVertices, zipfEdges, zipfGraphSeed), func(e *env, c *a1.Ctx) error {
			pq, err := e.db.Prepare(c, e.g, zipfRWPointQ)
			e.prepared["point"] = pq
			e.scoreSeq.Store(scoreBase)
			return err
		})
	},
	warmOps:   400,
	warm:      rwWarm,
	reference: func(e *env) error { return buildZipfRef(e, zipfGraph) },
	next:      rwNext,
	drain:     rwDrain,
	final:     rwFinal,
}

func rwCategory(cl *client) string {
	if cl.rw.cats == nil {
		cl.rw.cats = newZipfChooser(cl.rng.Int63(), zipfGraph.Categories, zipfGraph.Skew)
	}
	return zipfGraph.CategoryName(cl.rw.cats.next())
}

// rwNext deals 25% vertex updates, 25% halves of an edge create/delete
// pair, 25% point reads and 25% top-K index reads.
func rwNext(e *env, cl *client) op {
	switch cl.deal("mix", 1, 1, 1, 1) {
	case 0:
		return rwUpdate(e, cl)
	case 1:
		return rwEdge(e, cl)
	case 2:
		return rwPoint(e, cl)
	default:
		return rwTopK(e, cl)
	}
}

// rwWarm sends the read half of the mix.
func rwWarm(e *env, cl *client) op {
	if cl.rng.Intn(2) == 0 {
		return rwPoint(e, cl)
	}
	return rwTopK(e, cl)
}

func rwPoint(e *env, cl *client) op {
	idx := cl.keys.next()
	id := zipfGraph.VertexID(idx)
	return op{class: point, kind: "point", doc: fmt.Sprintf(`{"id": %q, "_select": ["id", "category", "score"]}`, id),
		exec: func(cl *client) (func() error, error) {
			res, err := e.execPrepared(cl, "point", a1.Params{"id": id})
			if err != nil {
				return nil, err
			}
			return func() error {
				if len(res.Rows) != 1 || res.Rows[0].Values["id"].AsString() != id {
					return fmt.Errorf("point %s: %d rows", id, len(res.Rows))
				}
				return cl.rw.observe(idx, res.Rows[0].Values["score"].AsInt())
			}, nil
		}}
}

func rwTopK(e *env, cl *client) op {
	z := zipfGraph
	cat := rwCategory(cl)
	doc := z.TopKInCategoryQuery(cat, zipfTopK)
	return op{class: traverse, kind: "topkincategory", doc: doc, exec: func(cl *client) (func() error, error) {
		res, err := e.query(cl, doc)
		if err != nil {
			return nil, err
		}
		return func() error { return checkDescending(cat, res) }, nil
	}}
}

// observe records a score read or written for vertex idx and fails if it
// went backwards for this client.
func (s *rwState) observe(idx int, score int64) error {
	if prev, ok := s.seen[idx]; ok && score < prev {
		return fmt.Errorf("vertex %d: score %d after this client saw %d", idx, score, prev)
	}
	s.seen[idx] = score
	return nil
}

// checkDescending checks a top-K-in-category reply: at most K rows, scores
// strictly descending. Exact contents are checked at the end of the run.
func checkDescending(cat string, res *a1.Result) error {
	if len(res.Rows) > zipfTopK {
		return fmt.Errorf("topk %s: %d rows", cat, len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Values["score"].AsInt() >= res.Rows[i-1].Values["score"].AsInt() {
			return fmt.Errorf("topk %s: row %d out of order", cat, i)
		}
	}
	return nil
}

// rwUpdate rewrites a hot vertex: a new category (moving its category
// index entry) and the next monotonic score (moving its score entry).
func rwUpdate(e *env, cl *client) op {
	idx := cl.keys.next()
	cat := rwCategory(cl)
	return op{class: write, kind: "update", exec: func(cl *client) (func() error, error) {
		var old, score int64
		ref := e.ref.(*zipfRef)
		err := e.txn(cl.c, func(tx *a1.Tx) error {
			v, err := e.g.ReadVertex(tx, ref.ptr[idx])
			if err != nil {
				return err
			}
			sc, _ := v.Data.Field(2)
			old = sc.AsInt()
			score = e.scoreSeq.Add(1)
			return e.g.UpdateVertex(tx, ref.ptr[idx], v.Data.WithField(1, a1.Str(cat)).WithField(2, a1.I64(score)))
		})
		if err != nil {
			return nil, err
		}
		e.afterCommit(cl.c)
		return func() error {
			if err := cl.rw.observe(idx, old); err != nil {
				return err
			}
			return cl.rw.observe(idx, score)
		}, nil
	}}
}

// rwEdge creates an edge from one of the client's own vertices onto a hub
// (whose in-list has spilled to a B-tree), or deletes the one it created.
func rwEdge(e *env, cl *client) op {
	ref := e.ref.(*zipfRef)
	if cl.rw.pending {
		src, hub := cl.rw.pendingSrc, cl.rw.pendingHub
		return op{class: write, kind: "edge_delete", exec: func(cl *client) (func() error, error) {
			var found bool
			err := e.txn(cl.c, func(tx *a1.Tx) error {
				var err error
				found, err = e.g.DeleteEdge(tx, ref.ptr[src], "link", ref.ptr[hub])
				return err
			})
			if err != nil {
				return nil, err
			}
			e.afterCommit(cl.c)
			cl.rw.pending = false
			return func() error {
				if !found {
					return fmt.Errorf("edge %d->%d vanished", src, hub)
				}
				return nil
			}, nil
		}}
	}
	hub := cl.rng.Intn(zipfHubs)
	var src int
	for {
		// Sources are partitioned by client so no two clients race on one
		// edge; the loaded graph's own edges onto the hub are skipped.
		src = cl.rng.Intn(zipfVertices/(clients+1))*(clients+1) + cl.id
		if src < zipfVertices && src >= zipfHubs && !ref.hubIn[hub][src] {
			break
		}
	}
	return op{class: write, kind: "edge_create", exec: func(cl *client) (func() error, error) {
		err := e.txn(cl.c, func(tx *a1.Tx) error {
			return e.g.CreateEdge(tx, ref.ptr[src], "link", ref.ptr[hub], a1.Null)
		})
		if err != nil {
			return nil, err
		}
		e.afterCommit(cl.c)
		cl.rw.pending, cl.rw.pendingSrc, cl.rw.pendingHub = true, src, hub
		return func() error { return nil }, nil
	}}
}

// rwDrain deletes the edge a client left created when the run ended.
func rwDrain(e *env, cl *client) error {
	if !cl.rw.pending {
		return nil
	}
	check, err := rwEdge(e, cl).exec(cl)
	if err != nil {
		return err
	}
	return check()
}

// rwFinal checks, after the run, that both secondary indexes agree with
// the vertex data, that every score only moved forward, that the hubs'
// edge lists are back to their loaded state, and that TopKInCategory
// returns what a full scan of the data says.
func rwFinal(e *env) []string {
	ref := e.ref.(*zipfRef)
	z := zipfGraph
	var fails []string
	failf := func(format string, args ...any) { fails = append(fails, fmt.Sprintf("final: "+format, args...)) }
	e.db.Run(func(c *a1.Ctx) {
		r := refReader{e.g, e.db.ReadTransaction(c)}
		vs, err := e.g.ReadVertices(r.tx, ref.ptr)
		if err != nil {
			failf("read vertices: %v", err)
			return
		}
		cat := make([]string, len(vs))
		score := make([]int64, len(vs))
		byCat := map[string]map[int]bool{}
		for i, v := range vs {
			if v == nil {
				failf("vertex %d vanished", i)
				return
			}
			cv, _ := v.Data.Field(1)
			sv, _ := v.Data.Field(2)
			cat[i], score[i] = cv.AsString(), sv.AsInt()
			if byCat[cat[i]] == nil {
				byCat[cat[i]] = map[int]bool{}
			}
			byCat[cat[i]][i] = true
			if score[i] < ref.score[i] {
				failf("vertex %d: score %d below loaded %d", i, score[i], ref.score[i])
			}
		}
		for rank := 0; rank < z.Categories; rank++ {
			name := z.CategoryName(rank)
			got := map[int]bool{}
			err := e.g.IndexScan(r.tx, "node", "category", a1.Str(name), func(vp a1.VertexPtr) bool {
				got[ref.index[vp]] = true
				return true
			})
			if err != nil {
				failf("category index %s: %v", name, err)
				continue
			}
			if len(got) != len(byCat[name]) {
				failf("category index %s: %d entries, data has %d", name, len(got), len(byCat[name]))
				continue
			}
			for i := range got {
				if !byCat[name][i] {
					failf("category index %s lists vertex %d of category %s", name, i, cat[i])
				}
			}
		}
		for i := range score {
			var hits []a1.VertexPtr
			err := e.g.IndexScan(r.tx, "node", "score", a1.I64(score[i]), func(vp a1.VertexPtr) bool {
				hits = append(hits, vp)
				return true
			})
			if err != nil || len(hits) != 1 || hits[0] != ref.ptr[i] {
				failf("score index %d: %d entries (err %v) for vertex %d", score[i], len(hits), err, i)
			}
		}
		for h := 0; h < zipfHubs; h++ {
			n := 0
			err := e.g.EnumerateEdges(r.tx, ref.ptr[h], a1.DirIn, "link", func(a1.HalfEdge) bool { n++; return true })
			if err != nil || n != len(ref.hubIn[h]) {
				failf("hub %d: %d in-edges (err %v), loaded %d", h, n, err, len(ref.hubIn[h]))
			}
		}
		now := &zipfRef{z: z, score: score}
		for rank := 0; rank < z.Categories; rank++ {
			name := z.CategoryName(rank)
			var members []int
			for i := range byCat[name] {
				members = append(members, i)
			}
			want := now.topByScore(members, zipfTopK)
			res, err := e.db.Query(c, e.g, z.TopKInCategoryQuery(name, zipfTopK))
			if err != nil {
				failf("topk %s: %v", name, err)
				continue
			}
			var got []string
			for _, row := range res.Rows {
				got = append(got, row.Values["id"].AsString())
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				failf("topk %s: %v, data says %v", name, got, want)
			}
		}
	})
	return fails
}
