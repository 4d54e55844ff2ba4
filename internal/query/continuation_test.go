package query

import (
	"errors"
	"sync"
	"testing"
	"time"

	"a1/internal/bond"
	"a1/internal/core"
	"a1/internal/fabric"
	"a1/internal/farm"
)

// Continuation expiry coverage: expired tokens through the Release path,
// the background sweep racing concurrent Fetch streams, and abandoned
// cursors of every result shape dying at the next put on their machine.

func TestReleaseExpiredToken(t *testing.T) {
	e, g, c := newRangeEnv(t)
	e.cfg.PageSize = 10
	e.cfg.ResultTTL = 20 * time.Millisecond
	res, err := e.Execute(c, g, []byte(`{"_type": "item", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if res.Continuation == "" {
		t.Fatal("expected a continuation (100 rows, page size 10)")
	}
	if n := e.PendingResults(0); n != 1 {
		t.Fatalf("PendingResults = %d, want 1", n)
	}
	time.Sleep(30 * time.Millisecond)
	if n := e.ExpireResults(c); n != 1 {
		t.Fatalf("ExpireResults swept %d entries, want 1", n)
	}
	if n := e.PendingResults(0); n != 0 {
		t.Fatalf("PendingResults after sweep = %d, want 0", n)
	}
	// Releasing a token whose state the sweeper already dropped is not an
	// error (the cursor Close path races the sweeper by design).
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(expired) = %v, want nil", err)
	}
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(expired) = %v, want ErrBadToken", err)
	}

	// An expired entry that the sweeper has not visited yet is also
	// refused by Fetch (expiry is checked on access, not only on sweep).
	res, err = e.Execute(c, g, []byte(`{"_type": "item", "_select": ["id"]}`))
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := e.Fetch(c, res.Continuation); !errors.Is(err, ErrBadToken) {
		t.Fatalf("Fetch(lapsed, unswept) = %v, want ErrBadToken", err)
	}
	if err := e.Release(c, res.Continuation); err != nil {
		t.Fatalf("Release(consumed) = %v, want nil", err)
	}
}

func TestSweepUnderConcurrentFetch(t *testing.T) {
	e, g, c := newRangeEnv(t)
	e.cfg.PageSize = 5
	e.cfg.ResultTTL = 40 * time.Millisecond

	const streams = 8
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
			res, err := e.Execute(c, g, []byte(`{"_type": "item", "_select": ["id"]}`))
			if err != nil {
				errCh <- err
				return
			}
			rows := len(res.Rows)
			token := res.Continuation
			for token != "" {
				if slow {
					// Outlive the TTL mid-stream: the sweeper must cut this
					// stream off with ErrBadToken, never corrupt it.
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
				rows += len(page.Rows)
				token = page.Continuation
			}
			if rows != rangeItems {
				errCh <- errors.New("incomplete stream despite no expiry")
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
	// Everything left behind drains after the TTL.
	time.Sleep(50 * time.Millisecond)
	e.ExpireResults(c)
	if n := e.PendingResults(0); n != 0 {
		t.Fatalf("PendingResults after final sweep = %d, want 0", n)
	}
}

// TestAbandonedCursorsExpireAtNextPut: a client that walks away from a
// cursor never fetches or releases it again. Once the TTL has passed, the
// next query on the same coordinator must free everything the cursor held
// — its cursor entry, the group-run tails parked on the workers, spill
// tables, and the snapshot pin that holds the GC watermark — leaving the
// farm as collectable as if the cursor had been released, which in turn is
// as collectable as if it had never been opened.
func TestAbandonedCursorsExpireAtNextPut(t *testing.T) {
	const ttl = 100 * time.Millisecond
	skew := func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx, string) {
		e, _, g, c := newSkewEnv(t)
		return e, g, c, "product"
	}
	recurse := func(t *testing.T) (*Engine, *core.Graph, *fabric.Ctx, string) {
		e, g, c := newRecurseEnv(t, DefaultConfig())
		return e, g, c, "page"
	}
	cases := []struct {
		name string
		env  func(*testing.T) (*Engine, *core.Graph, *fabric.Ctx, string)
		tune func(*Config)
		doc  string
	}{
		{"row slice", skew, nil,
			`{"_type": "product", "_select": ["id"]}`},
		{"group slice", skew, nil,
			`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"], "_orderby": "-_count(*)"}`},
		{"streamed groups", skew, func(cfg *Config) { cfg.GroupChunk = 8 },
			`{"_type": "product", "_groupby": "category", "_select": ["_count(*)", "_sum(score)"]}`},
		// `_count(*)` alone runs as an IndexGroupScan: the cursor pins the
		// snapshot its later chunks read.
		{"index groups", skew, func(cfg *Config) { cfg.GroupChunk = 8 },
			`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"]}`},
		{"index groups ordered", skew, nil,
			`{"_type": "product", "_groupby": "category", "_select": ["_count(*)"], "_orderby": "-_count(*)"}`},
		{"spilled groups", skew, func(cfg *Config) { cfg.MaxWorkingSet = 40 },
			`{"_type": "product", "_groupby": "category", "_select": ["_sum(score)"], "_orderby": "-_sum(score)"}`},
		{"recurse", recurse, func(cfg *Config) { cfg.PageSize = 3 },
			recurseDoc(recurseID(0), 1, 5, "")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// scenario returns how many old versions GCVersions frees at the
			// end, with the first cursor released or abandoned — or, with
			// open=false, never opened.
			scenario := func(open, release bool) int {
				e, g, c, typ := tc.env(t)
				e.cfg.ResultTTL = ttl
				e.cfg.PageSize = 10
				if tc.tune != nil {
					tc.tune(&e.cfg)
				}
				res := &Result{}
				if open {
					var err error
					if res, err = e.Execute(c, g, []byte(tc.doc)); err != nil {
						t.Fatal(err)
					}
					if res.Continuation == "" {
						t.Fatal("expected a continuation")
					}
				}
				rewriteVertices(t, g, c, typ)
				if release {
					if err := e.Release(c, res.Continuation); err != nil {
						t.Fatal(err)
					}
				}
				time.Sleep(ttl + 20*time.Millisecond)
				drainQuery(t, e, g, c, tc.doc)
				for m := 0; m < e.store.Farm().Fabric().Machines(); m++ {
					if n := e.PendingResults(fabric.MachineID(m)); n != 0 {
						t.Errorf("release=%v: PendingResults(%d) = %d, want 0", release, m, n)
					}
					if n := e.PendingRuns(fabric.MachineID(m)); n != 0 {
						t.Errorf("release=%v: PendingRuns(%d) = %d, want 0", release, m, n)
					}
				}
				if names := e.spill.TableNames(); len(names) != 0 {
					t.Errorf("release=%v: spill tables left: %v", release, names)
				}
				return e.store.Farm().GCVersions(c)
			}
			released := scenario(true, true)
			abandoned := scenario(true, false)
			unopened := scenario(false, false)
			if released == 0 {
				t.Fatal("GCVersions freed nothing after the rewrites")
			}
			if abandoned != released {
				t.Fatalf("GCVersions freed %d after an abandoned cursor, %d after a released one", abandoned, released)
			}
			if released != unopened {
				t.Fatalf("GCVersions freed %d after a released cursor, %d with no cursor opened", released, unopened)
			}
		})
	}
}

// rewriteVertices writes every vertex of typ back unchanged, leaving old
// versions that only a pinned snapshot keeps from garbage collection.
func rewriteVertices(t *testing.T, g *core.Graph, c *fabric.Ctx, typ string) {
	t.Helper()
	err := farm.RunTransaction(c, g.Store().Farm(), func(tx *farm.Tx) error {
		var ptrs []core.VertexPtr
		if err := g.ScanVerticesByType(tx, typ, func(_ bond.Value, vp core.VertexPtr) bool {
			ptrs = append(ptrs, vp)
			return true
		}); err != nil {
			return err
		}
		vs, err := g.ReadVertices(tx, ptrs)
		if err != nil {
			return err
		}
		for i, v := range vs {
			if err := g.UpdateVertex(tx, ptrs[i], v.Data); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// drainQuery executes doc and fetches every continuation page.
func drainQuery(t *testing.T, e *Engine, g *core.Graph, c *fabric.Ctx, doc string) {
	t.Helper()
	res, err := e.Execute(c, g, []byte(doc))
	for {
		if err != nil {
			t.Fatalf("Execute(%s): %v", doc, err)
		}
		if res.Continuation == "" {
			return
		}
		res, err = e.Fetch(c, res.Continuation)
	}
}
