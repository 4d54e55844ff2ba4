package query

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"a1/internal/core"
	"a1/internal/fabric"
)

// Owner-side fan-out tests: every caller of partition/fanOut — plain
// levels, ordered traversal terminals, worker groupings and `_recurse`
// iterations — must give the same answer shipped or read from the
// coordinator, fail with the fabric's typed error when an owner is
// unreachable, and leave no continuation state or parked run tail behind.

// shipShape is one caller of the fan-out: a fixture and a document that
// runs through it. source, when set, is the terminal operator the document
// must run as, so a planner change cannot quietly route it elsewhere.
type shipShape struct {
	name   string
	env    func(*testing.T) (*Engine, *core.Graph, *fabric.Ctx)
	doc    string
	source string
}

var shipShapes = []shipShape{
	{name: "rows", env: func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
		env := newTestEnv(t, 9)
		return env.engine, env.graph, env.c
	}, doc: `{"id": "steven.spielberg", "_out_edge": {"_type": "director.film", "_vertex": {
		"_out_edge": {"_type": "film.actor", "_vertex": {"_select": ["id"], "_orderby": "id"}}}}}`},
	{name: "ordered", env: func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
		e, _, g, c := newTopOrderEnv(t, 8)
		return e, g, c
	}, doc: `{"_type": "src", "_out_edge": {"_type": "link", "_vertex": {
		"_type": "node", "_select": ["id", "score"], "_orderby": "-score", "_limit": 25}}}`,
		source: "OrderedTraverse"},
	{name: "groups", env: func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
		e, _, g, c := newSkewEnv(t)
		e.cfg.GroupChunk = 8
		e.cfg.PageSize = 10
		return e, g, c
	}, doc: `{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`},
	{name: "recurse", env: func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx) {
		return newRecurseEnv(t, DefaultConfig())
	}, doc: `{"id": "p00", "_recurse": {"_type": "ref", "_max": 4,
		"_vertex": {"_select": ["id"], "_orderby": "id"}}}`},
}

// withHints prepends a `_hints` object to a document.
func withHints(doc, hints string) string {
	return `{"_hints": ` + hints + `, ` + strings.TrimPrefix(strings.TrimSpace(doc), "{")
}

// drainResult executes doc and fetches every continuation page, returning
// all rows and groups and the first page's stats.
func drainResult(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) ([]Row, []GroupRow, Stats) {
	t.Helper()
	res, err := e.Execute(c, g, []byte(doc))
	if err != nil {
		t.Fatalf("Execute(%s): %v", doc, err)
	}
	first := res.Stats
	var rows []Row
	var groups []GroupRow
	for {
		rows = append(rows, res.Rows...)
		groups = append(groups, res.Groups...)
		if res.Continuation == "" {
			return rows, groups, first
		}
		if res, err = e.Fetch(c, res.Continuation); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
	}
}

// TestNoShippingHintEquivalence runs each fan-out caller with every remote
// batch shipped (ShipThreshold 1) and with shipping off: the answers must
// be identical, in the same order, and only the shipped run may use RPCs
// or ship rows and groups. Either way the RDMA sampler sees the batches.
func TestNoShippingHintEquivalence(t *testing.T) {
	for _, sh := range shipShapes {
		t.Run(sh.name, func(t *testing.T) {
			e, g, c := sh.env(t)
			e.cfg.ShipThreshold = 1
			var sampled atomic.Int64
			e.cfg.RDMASampler = func(int, time.Duration) { sampled.Add(1) }
			run := func(doc string) ([]Row, []GroupRow, Stats) {
				sampled.Store(0)
				rows, groups, st := drainResult(t, e, g, c, doc)
				if sampled.Load() == 0 {
					t.Errorf("RDMASampler saw no batch of %s", doc)
				}
				return rows, groups, st
			}
			rows, groups, shipped := run(sh.doc)
			dRows, dGroups, direct := run(withHints(sh.doc, `{"no_shipping": true}`))
			if len(rows)+len(groups) == 0 {
				t.Fatal("no rows or groups: parity is vacuous")
			}
			sameRows(t, sh.name, dRows, rows)
			sameGroups(t, sh.name, dGroups, groups)
			if sh.source != "" {
				for _, st := range []Stats{shipped, direct} {
					if src := st.Levels[len(st.Levels)-1].Source; !strings.HasPrefix(src, sh.source) {
						t.Fatalf("terminal ran %s, want %s", src, sh.source)
					}
				}
			}
			if shipped.RPCs == 0 || shipped.RowsShipped+shipped.GroupsShipped == 0 {
				t.Errorf("shipped run: %d RPCs, %d rows and %d groups shipped; want all batches shipped",
					shipped.RPCs, shipped.RowsShipped, shipped.GroupsShipped)
			}
			if direct.RPCs != 0 || direct.RowsShipped+direct.GroupsShipped != 0 {
				t.Errorf("no_shipping run: %d RPCs, %d rows and %d groups shipped; want none",
					direct.RPCs, direct.RowsShipped, direct.GroupsShipped)
			}
		})
	}
}

// TestFailedOwner fails each non-coordinator machine in turn under every
// fan-out caller, with every remote batch shipped: the query must fail
// with the fabric's typed error, return nothing, and leave no cursor or
// parked run tail on a live machine.
func TestFailedOwner(t *testing.T) {
	for _, sh := range shipShapes {
		t.Run(sh.name, func(t *testing.T) {
			e, g, c := sh.env(t)
			e.cfg.ShipThreshold = 1
			fab := e.store.Farm().Fabric()
			fannedOut := false
			for m := fabric.MachineID(1); int(m) < fab.Machines(); m++ {
				rpcs := fab.Metrics.RPCs.Load()
				fab.Fail(m)
				res, err := e.Execute(c, g, []byte(sh.doc))
				if !errors.Is(err, fabric.ErrUnreachable) {
					t.Fatalf("machine %d failed: err = %v, want ErrUnreachable", m, err)
				}
				if res != nil {
					t.Fatalf("machine %d failed: got a result with %d rows, %d groups", m, len(res.Rows), len(res.Groups))
				}
				// Batches shipped to live owners mean the failure surfaced
				// in the fan-out, not in an earlier read.
				fannedOut = fannedOut || fab.Metrics.RPCs.Load() > rpcs
				assertNothingPending(t, e, fmt.Sprintf("machine %d failed", m))
				fab.Restore(m)
			}
			if !fannedOut {
				t.Fatal("no failure reached the fan-out; coverage is vacuous")
			}
		})
	}
}

// assertNothingPending requires every live machine to hold no cursor and
// no parked run tail.
func assertNothingPending(t *testing.T, e *Engine, label string) {
	t.Helper()
	fab := e.store.Farm().Fabric()
	for m := fabric.MachineID(0); int(m) < fab.Machines(); m++ {
		if fab.Failed(m) {
			continue
		}
		if n := e.PendingResults(m); n != 0 {
			t.Errorf("%s: PendingResults(%d) = %d, want 0", label, m, n)
		}
		if n := e.PendingRuns(m); n != 0 {
			t.Errorf("%s: PendingRuns(%d) = %d, want 0", label, m, n)
		}
	}
}
