package main

import (
	"fmt"
	"time"

	"a1"
	"a1/internal/workload"
)

// workloadSpec is one traffic mix over one dataset.
type workloadSpec struct {
	name string
	// load creates the dataset in a fresh graph and records its scale.
	load func(e *env, c *a1.Ctx) error
	// warmOps is how many read requests set-up sends to fill caches.
	warmOps int
	// warm generates a read-only request for set-up.
	warm func(e *env, cl *client) op
	// reference computes the expected answers over a read snapshot.
	reference func(e *env) error
	// next generates a client's next request.
	next func(e *env, cl *client) op
	// drain finishes a client's open work (e.g. a created edge) untimed.
	drain func(e *env, cl *client) error
	// final checks the database state after the run.
	final func(e *env) []string
}

var workloads = map[string]*workloadSpec{
	"kg_serve":       kgServe,
	"zipf_analytics": zipfAnalytics,
	"zipf_rw":        zipfRW,
}

func workloadNames() []string { return sortedKeys(workloads) }

// warmSeed seeds the set-up requests, apart from every run seed's stream.
const warmSeed = -1

// setUp opens the cluster, loads the dataset and warms it.
func setUp(spec *workloadSpec) (*env, error) {
	db, err := a1.Open(a1.Options{Machines: machines})
	if err != nil {
		return nil, err
	}
	e := &env{db: db, prepared: map[string]*a1.PreparedQuery{}}
	db.Run(func(c *a1.Ctx) {
		if err = db.CreateTenant(c, "bench"); err != nil {
			return
		}
		if err = db.CreateGraph(c, "bench", "g"); err != nil {
			return
		}
		if e.g, err = db.OpenGraph(c, "bench", "g"); err != nil {
			return
		}
		err = spec.load(e, c)
	})
	if err != nil {
		db.Close()
		return nil, err
	}
	// Reclaim the bulk load's dead versions, as an operator would after a
	// load, then fill the caches.
	db.Run(func(c *a1.Ctx) { db.GCVersions(c) })
	cl := newClient(e, clients, warmSeed)
	for i := 0; i < spec.warmOps; i++ {
		o := spec.warm(e, cl)
		if _, err := o.exec(cl); err != nil {
			db.Close()
			return nil, fmt.Errorf("warm %s: %w", o.kind, err)
		}
	}
	return e, nil
}

func noDrain(*env, *client) error { return nil }
func noFinal(*env) []string       { return nil }

// Query helpers: each runs one request through the frontend tier and
// accounts the pages it received.

func (e *env) query(cl *client, doc string) (*a1.Result, error) {
	res, err := e.db.Query(cl.c, e.g, doc)
	if err != nil {
		return nil, err
	}
	e.noteResult(res)
	return res, nil
}

func (e *env) execPrepared(cl *client, name string, p a1.Params) (*a1.Result, error) {
	res, err := e.prepared[name].Exec(cl.c, p)
	if err != nil {
		return nil, err
	}
	e.noteResult(res)
	return res, nil
}

// drainGroups fetches every page of a grouped result.
func (e *env) drainGroups(cl *client, doc string) ([]a1.GroupRow, error) {
	res, err := e.query(cl, doc)
	if err != nil {
		return nil, err
	}
	groups := append([]a1.GroupRow(nil), res.Groups...)
	for res.Continuation != "" {
		t0 := time.Now()
		res, err = e.db.Fetch(cl.c, res.Continuation)
		e.fetchNanos.Add(int64(time.Since(t0)))
		e.fetchPages.Add(1)
		if err != nil {
			return nil, err
		}
		e.noteResult(res)
		groups = append(groups, res.Groups...)
	}
	return groups, nil
}

// drainRows walks a result through a Rows cursor to the end and returns
// the projected string field of every row.
func (e *env) drainRows(cl *client, doc, field string) ([]string, error) {
	rows, err := e.db.QueryRows(cl.c, e.g, doc)
	if err != nil {
		return nil, err
	}
	defer rows.Close(cl.c)
	e.noteResult(rows.Result())
	var out []string
	for {
		pages := rows.Pages()
		t0 := time.Now()
		more := rows.Next(cl.c)
		if rows.Pages() != pages {
			e.fetchNanos.Add(int64(time.Since(t0)))
			e.fetchPages.Add(int64(rows.Pages() - pages))
		}
		if !more {
			break
		}
		out = append(out, rows.Row().Values[field].AsString())
	}
	return out, rows.Err()
}

// ---------------------------------------------------------------------
// kg_serve: the paper's serving profile over the film knowledge graph.

const (
	kgActors  = 11000
	kgPointQ  = `{"id": "$id", "_select": ["id", "popularity"]}`
	kgSkew    = 1.13
	kgWarmOps = 3000
)

func kgPointDoc(id string) string {
	return fmt.Sprintf(`{"id": %q, "_select": ["id", "popularity"]}`, id)
}

// kgCostarDoc is an actor's co-star 2-hop, sent as a literal document so
// every distinct actor is a distinct plan-cache entry.
func kgCostarDoc(id string) string {
	return fmt.Sprintf(`{"id": %q, "_out_edge": {"_type": "actor.film", "_vertex": {"_out_edge": {"_type": "film.actor", "_vertex": {"_select": ["_count(*)"]}}}}}`, id)
}

// Table 2's Q1-Q3, verbatim.
const (
	kgQ1 = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : {
      "_out_edge" : { "_type" : "film.actor",
        "_vertex" : { "_select" : ["_count(*)"] }}}}}`

	kgQ2 = `{ "id" : "character.batman",
  "_out_edge" : { "_type" : "character.film",
    "_vertex" : {
      "_out_edge" : { "_type" : "film.performance",
        "_vertex" : {
          "str_str_map[character]" : "Batman",
          "_out_edge" : { "_type" : "performance.actor",
            "_vertex" : { "_select" : ["_count(*)"] }}}}}}}`

	kgQ3 = `{ "id" : "steven.spielberg",
  "_out_edge" : { "_type" : "director.film",
    "_vertex" : { "_type" : "entity",
      "_select" : ["name[0]"],
      "_match" : [
        { "_out_edge" : { "_type" : "film.actor",
            "_vertex" : { "id" : "tom.hanks" }}},
        { "_out_edge" : { "_type" : "film.genre",
            "_vertex" : { "id" : "war" }}}] }}}`
)

func actorID(i int) string { return fmt.Sprintf("actor.%05d", i) }

var kgServe = &workloadSpec{
	name: "kg_serve",
	load: func(e *env, c *a1.Ctx) error {
		return loadKG(e, c, workload.PaperParams())
	},
	warmOps:   kgWarmOps,
	warm:      kgNext,
	reference: func(e *env) error { return buildKGRef(e) },
	next:      kgNext,
	drain:     noDrain,
	final:     noFinal,
}

// loadKG loads the film KG with parameters p and prepares the point read.
func loadKG(e *env, c *a1.Ctx, p workload.Params) error {
	kg := workload.NewFilmKG(p)
	if err := kg.Load(c, e.g); err != nil {
		return err
	}
	pq, err := e.db.Prepare(c, e.g, kgPointQ)
	if err != nil {
		return err
	}
	e.prepared["point"] = pq
	e.keySpace, e.keySkew = p.ActorPool, kgSkew
	e.scale = fmt.Sprintf("graph=filmkg vertices=%d edges=%d actors=%d farm_mb=%.1f plan_cache=1024",
		kg.Stats.Vertices, kg.Stats.Edges, p.ActorPool, float64(e.db.UsedBytes())/(1<<20))
	return nil
}

// kgNext deals 60% point reads, 34% co-star 2-hops and 2% each of Q1,
// Q2 and Q3. Q1 is the slowest request, so p99 lands inside its
// distribution.
func kgNext(e *env, cl *client) op {
	switch cl.deal("mix", 30, 17, 1, 1, 1) {
	case 0:
		id := actorID(cl.keys.next())
		return op{class: point, kind: "point", doc: kgPointDoc(id), exec: func(cl *client) (func() error, error) {
			res, err := e.execPrepared(cl, "point", a1.Params{"id": id})
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*kgRef).checkPoint(id, res) }, nil
		}}
	case 1:
		id := actorID(cl.keys.next())
		doc := kgCostarDoc(id)
		return op{class: traverse, kind: "costar", doc: doc, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, doc)
			if err != nil {
				return nil, err
			}
			return func() error { return checkCount("costar "+id, res, e.ref.(*kgRef).costar[id]) }, nil
		}}
	case 2:
		return op{class: traverse, kind: "q1", doc: kgQ1, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, kgQ1)
			if err != nil {
				return nil, err
			}
			return func() error { return checkCount("q1", res, e.ref.(*kgRef).q1) }, nil
		}}
	case 3:
		return op{class: traverse, kind: "q2", doc: kgQ2, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, kgQ2)
			if err != nil {
				return nil, err
			}
			return func() error { return checkCount("q2", res, e.ref.(*kgRef).q2) }, nil
		}}
	default:
		return op{class: traverse, kind: "q3", doc: kgQ3, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, kgQ3)
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*kgRef).checkQ3(res) }, nil
		}}
	}
}

func checkCount(what string, res *a1.Result, want int64) error {
	if !res.HasCount || res.Count != want {
		return fmt.Errorf("%s: count %d (has=%v), want %d", what, res.Count, res.HasCount, want)
	}
	return nil
}

// ---------------------------------------------------------------------
// zipf_analytics and zipf_rw: the skewed synthetic graph.

const (
	zipfVertices   = 20000
	zipfEdges      = 60000
	zipfGraphSeed  = 1
	zipfSkew       = 1.1
	zipfTopK       = 10
	zipfRecurseMax = 4
	zipfRoots      = 64
)

// zipfGroupScoreDoc is the high-cardinality grouping: one group per
// distinct score, drained page by page.
const zipfGroupScoreDoc = `{"_type": "node", "_groupby": "score", "_select": ["_count(*)"]}`

// zipfRootID returns the i-th recursion root of the fixed probe set.
func zipfRootID(z *workload.ZipfGraph, i int) string {
	return z.VertexID((i*7919 + 11) % z.Vertices)
}

// loadZipf loads the Zipf graph, then runs the workload's prepare step.
func loadZipf(e *env, c *a1.Ctx, z *workload.ZipfGraph, prepare func(e *env, c *a1.Ctx) error) error {
	if err := z.Load(c, e.g); err != nil {
		return err
	}
	e.keySpace, e.keySkew = z.Vertices, zipfSkew
	e.scale = fmt.Sprintf("graph=zipf vertices=%d edges=%d categories=%d farm_mb=%.1f plan_cache=1024",
		z.Stats.Vertices, z.Stats.Edges, z.Categories, float64(e.db.UsedBytes())/(1<<20))
	return prepare(e, c)
}

var zipfGraph = workload.NewZipfGraph(zipfVertices, zipfEdges, zipfGraphSeed)

var zipfAnalytics = &workloadSpec{
	name: "zipf_analytics",
	load: func(e *env, c *a1.Ctx) error {
		return loadZipf(e, c, workload.NewZipfGraph(zipfVertices, zipfEdges, zipfGraphSeed), func(*env, *a1.Ctx) error { return nil })
	},
	warmOps:   2 + zipfGraph.Categories + zipfRoots,
	warm:      analyticsWarm,
	reference: func(e *env) error { return buildZipfRef(e, zipfGraph) },
	next:      analyticsNext,
	drain:     noDrain,
	final:     noFinal,
}

// analyticsNext deals whole-type and whole-index queries: 2% the paged
// score grouping, 6% top groups, 60% top-K neighbours of a category and
// 32% bounded recursion from a probe root; categories and roots are dealt
// evenly too. The score grouping is the slowest request, so p99 lands
// inside its distribution.
func analyticsNext(e *env, cl *client) op {
	switch cl.deal("mix", 1, 3, 30, 16) {
	case 0:
		return analyticsOp(e, "groupscore", 0)
	case 1:
		return analyticsOp(e, "topgroups", 0)
	case 2:
		return analyticsOp(e, "topkneighbors", cl.deal("category", ones(zipfGraph.Categories)...))
	default:
		return analyticsOp(e, "recurse", cl.deal("root", ones(zipfRoots)...))
	}
}

// analyticsWarm sends every distinct analytics document once, so the run
// starts with all of them in the plan cache.
func analyticsWarm(e *env, cl *client) op {
	i := cl.warmed
	cl.warmed++
	switch {
	case i == 0:
		return analyticsOp(e, "topgroups", 0)
	case i == 1:
		return analyticsOp(e, "groupscore", 0)
	case i < 2+zipfGraph.Categories:
		return analyticsOp(e, "topkneighbors", i-2)
	default:
		return analyticsOp(e, "recurse", (i-2-zipfGraph.Categories)%zipfRoots)
	}
}

// analyticsOp builds one analytics request; arg picks the category rank
// or the probe root.
func analyticsOp(e *env, kind string, arg int) op {
	z := zipfGraph
	switch kind {
	case "topgroups":
		doc := z.TopGroupsQuery(zipfTopK)
		return op{class: scan, kind: "topgroups", doc: doc, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, doc)
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*zipfRef).checkTopGroups(res.Groups) }, nil
		}}
	case "groupscore":
		return op{class: scan, kind: "groupscore", doc: zipfGroupScoreDoc, exec: func(cl *client) (func() error, error) {
			groups, err := e.drainGroups(cl, zipfGroupScoreDoc)
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*zipfRef).checkScoreGroups(groups) }, nil
		}}
	case "topkneighbors":
		cat := z.CategoryName(arg)
		doc := z.TopKNeighborsQuery(cat, zipfTopK)
		return op{class: scan, kind: "topkneighbors", doc: doc, exec: func(cl *client) (func() error, error) {
			res, err := e.query(cl, doc)
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*zipfRef).checkTopKNeighbors(cat, res) }, nil
		}}
	default:
		root := zipfRootID(z, arg)
		doc := z.ReachableQuery(root, zipfRecurseMax)
		return op{class: scan, kind: "recurse", doc: doc, exec: func(cl *client) (func() error, error) {
			ids, err := e.drainRows(cl, doc, "id")
			if err != nil {
				return nil, err
			}
			return func() error { return e.ref.(*zipfRef).checkReach(root, ids) }, nil
		}}
	}
}
