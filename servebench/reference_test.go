package main

import (
	"testing"
	"time"

	"a1"
	"a1/internal/workload"
)

// openTestEnv loads a dataset into a fresh 8-machine cluster.
func openTestEnv(t *testing.T, load func(e *env, c *a1.Ctx) error) *env {
	t.Helper()
	db, err := a1.Open(a1.Options{Machines: machines})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(db.Close)
	e := &env{db: db, prepared: map[string]*a1.PreparedQuery{}}
	db.Run(func(c *a1.Ctx) {
		if err = db.CreateTenant(c, "t"); err != nil {
			return
		}
		if err = db.CreateGraph(c, "t", "g"); err != nil {
			return
		}
		if e.g, err = db.OpenGraph(c, "t", "g"); err != nil {
			return
		}
		err = load(e, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The film KG reference must agree with the query engine on every actor's
// co-star count, on every point read and on Q1-Q3.
func TestKGReferenceMatchesEngine(t *testing.T) {
	p := workload.TestParams()
	e := openTestEnv(t, func(e *env, c *a1.Ctx) error { return loadKG(e, c, p) })
	if err := buildKGRef(e); err != nil {
		t.Fatal(err)
	}
	ref := e.ref.(*kgRef)
	if len(ref.costar) != p.ActorPool || ref.q1 == 0 || ref.q2 == 0 || len(ref.q3) == 0 {
		t.Fatalf("degenerate reference: %d actors, q1=%d q2=%d q3=%v", len(ref.costar), ref.q1, ref.q2, ref.q3)
	}
	cl := newClient(e, 0, 1)
	for i := 0; i < p.ActorPool; i++ {
		id := actorID(i)
		res, err := e.query(cl, kgCostarDoc(id))
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCount(id, res, ref.costar[id]); err != nil {
			t.Error(err)
		}
		res, err = e.execPrepared(cl, "point", a1.Params{"id": id})
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.checkPoint(id, res); err != nil {
			t.Error(err)
		}
	}
	for _, q := range []struct {
		doc  string
		want int64
	}{{kgQ1, ref.q1}, {kgQ2, ref.q2}} {
		res, err := e.query(cl, q.doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkCount("q", res, q.want); err != nil {
			t.Error(err)
		}
	}
	res, err := e.query(cl, kgQ3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkQ3(res); err != nil {
		t.Error(err)
	}
	// A wrong count must be caught.
	res, _ = e.query(cl, kgQ1)
	if checkCount("q1", res, ref.q1+1) == nil {
		t.Error("checkCount accepted a wrong count")
	}
}

// The Zipf reference must agree with the engine on grouping, top-K order
// and `_recurse` reachability.
func TestZipfReferenceMatchesEngine(t *testing.T) {
	z := workload.NewZipfGraph(600, 2000, 3)
	e := openTestEnv(t, func(e *env, c *a1.Ctx) error {
		return loadZipf(e, c, z, func(*env, *a1.Ctx) error { return nil })
	})
	if err := buildZipfRef(e, z); err != nil {
		t.Fatal(err)
	}
	ref := e.ref.(*zipfRef)
	cl := newClient(e, 0, 1)
	res, err := e.query(cl, z.TopGroupsQuery(zipfTopK))
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkTopGroups(res.Groups); err != nil {
		t.Error(err)
	}
	groups, err := e.drainGroups(cl, zipfGroupScoreDoc)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkScoreGroups(groups); err != nil {
		t.Error(err)
	}
	if err := ref.checkScoreGroups(groups[1:]); err == nil {
		t.Error("checkScoreGroups accepted a missing group")
	}
	for rank := 0; rank < z.Categories; rank++ {
		cat := z.CategoryName(rank)
		res, err := e.query(cl, z.TopKNeighborsQuery(cat, zipfTopK))
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.checkTopKNeighbors(cat, res); err != nil {
			t.Error(err)
		}
	}
	nonEmpty := 0
	for i := 0; i < zipfRoots; i++ {
		root := zipfRootID(z, i)
		ids, err := e.drainRows(cl, z.ReachableQuery(root, zipfRecurseMax), "id")
		if err != nil {
			t.Fatal(err)
		}
		if err := ref.checkReach(root, ids); err != nil {
			t.Error(err)
		}
		if len(ids) > 0 {
			nonEmpty++
			if ref.checkReach(root, ids[1:]) == nil {
				t.Errorf("checkReach accepted a missing row from %s", root)
			}
		}
	}
	if nonEmpty == 0 {
		t.Error("no probe root reaches anything")
	}
}

// A short closed-loop run of the kg_serve mix on the small KG: both
// clients' replies check out against the reference.
func TestClosedLoopSmallKG(t *testing.T) {
	e := openTestEnv(t, func(e *env, c *a1.Ctx) error { return loadKG(e, c, workload.TestParams()) })
	if err := buildKGRef(e); err != nil {
		t.Fatal(err)
	}
	res := closedLoop(e, kgServe, 7, 300*time.Millisecond)
	if res.failed != 0 || res.completed == 0 {
		t.Fatalf("completed %d, failed %d: %v", res.completed, res.failed, res.failures)
	}
	for _, cl := range []class{point, traverse} {
		if len(res.latencies(func(c completion) bool { return c.class == cl })) == 0 {
			t.Fatalf("no %s requests completed", cl)
		}
	}
}
