package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"a1"
	"a1/internal/farm"
)

// class is a request's latency class.
type class int

const (
	point    class = iota // single-vertex read by primary key
	traverse              // traversal from one root
	scan                  // whole-type or whole-index query, drained
	write                 // committed transaction, retries included
	numClasses
)

func (c class) String() string {
	return [...]string{"point", "traverse", "scan", "write"}[c]
}

// op is one generated request. exec runs it (the timed part) and returns
// a check that compares the reply with the reference answers (untimed).
type op struct {
	class class
	kind  string // request shape, e.g. "costar" or "q1"
	doc   string // literal A1QL document of a query, "" for writes
	exec  func(cl *client) (check func() error, err error)
}

// client is one closed-loop client: it sends its next request only after
// the previous reply arrived.
type client struct {
	id  int
	c   *a1.Ctx
	rng *rand.Rand
	// keys draws the workload's Zipf-skewed keys.
	keys *zipfChooser
	// rw is the client's read-your-writes state (zipf_rw).
	rw *rwState
	// warmed counts the set-up requests this client generated.
	warmed int
	// decks deal the workload's request kinds and parameters.
	decks map[string]*deck
}

// deal returns the next card of the client's deck name, which holds
// counts[k] cards of each k.
func (cl *client) deal(name string, counts ...int) int {
	d, ok := cl.decks[name]
	if !ok {
		d = newDeck(cl.rng, counts...)
		cl.decks[name] = d
	}
	return d.next()
}

func newClient(e *env, id int, seed int64) *client {
	// Each client's stream depends only on the seed and its id.
	s := seed*1000003 + int64(id)*7919 + 17
	return &client{
		id:    id,
		c:     e.db.Fabric().NewCtx(0, nil),
		rng:   rand.New(rand.NewSource(s)),
		keys:  newZipfChooser(s^0x5bd1e995, e.keySpace, e.keySkew),
		rw:    newRWState(),
		decks: map[string]*deck{},
	}
}

// env is a loaded cluster plus the workload's reference answers and the
// counters the benchmark's own wrappers keep.
type env struct {
	db    *a1.DB
	g     *a1.Graph
	scale string

	// keySpace and keySkew shape the Zipf key chooser.
	keySpace int
	keySkew  float64

	prepared map[string]*a1.PreparedQuery
	ref      any // workload-specific reference answers

	acc queryAcc

	txAttempts, txCommits atomic.Int64
	commits               atomic.Int64 // drives the GC cadence
	gcCalls, gcFreed      atomic.Int64
	gcNanos               atomic.Int64
	fetchPages            atomic.Int64
	fetchNanos            atomic.Int64
	scoreSeq              atomic.Int64 // monotonic score source (zipf_rw)
}

// queryAcc sums the Stats of every query page the clients received.
type queryAcc struct {
	mu    sync.Mutex
	s     a1.QueryStats
	rows  int64
	pages int64
	local float64
}

func (a *queryAcc) add(s *a1.QueryStats, rows int) {
	a.mu.Lock()
	a.s.VerticesRead += s.VerticesRead
	a.s.EdgesVisited += s.EdgesVisited
	a.s.RPCs += s.RPCs
	a.s.RemoteReads += s.RemoteReads
	a.s.RowsShipped += s.RowsShipped
	a.s.BytesShipped += s.BytesShipped
	a.s.GroupsShipped += s.GroupsShipped
	a.s.PeakGroups += s.PeakGroups
	a.s.IndexFiltered += s.IndexFiltered
	a.local += s.LocalFrac
	a.rows += int64(rows)
	a.pages++
	a.mu.Unlock()
}

// reset forgets the pages counted so far (set-up's warm requests).
func (a *queryAcc) reset() {
	a.mu.Lock()
	a.s, a.rows, a.pages, a.local = a1.QueryStats{}, 0, 0, 0
	a.mu.Unlock()
}

func (a *queryAcc) snapshot() (a1.QueryStats, int64, int64, float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.s, a.rows, a.pages, a.local
}

// noteResult accounts one received page.
func (e *env) noteResult(res *a1.Result) {
	rows := len(res.Rows) + len(res.Groups)
	if res.HasCount {
		rows++
	}
	e.acc.add(&res.Stats, rows)
}

// txn runs fn in a read-write transaction, retrying conflicts like the
// paper's Figure 3 loop, and counts attempts and commits.
func (e *env) txn(c *a1.Ctx, fn func(tx *a1.Tx) error) error {
	const maxAttempts = 64
	for attempt := 1; ; attempt++ {
		tx := e.db.Farm().CreateTransaction(c)
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
		} else {
			tx.Abort()
		}
		e.txAttempts.Add(1)
		if err == nil {
			e.txCommits.Add(1)
			return nil
		}
		if !errors.Is(err, farm.ErrConflict) || attempt == maxAttempts {
			return fmt.Errorf("after %d attempts: %w", attempt, err)
		}
		time.Sleep(time.Duration(attempt) * 5 * time.Microsecond)
	}
}

// loopResult is what a closed-loop run measured.
type loopResult struct {
	attempted, completed, failed int64
	elapsed                      time.Duration
	done                         []completion
	failures                     []string
	mallocs, allocBytes, numGC   uint64
	gcCPU                        float64
	fabric                       fabricCounts
	planHits, planMisses         int64
}

// completion is one completed request: its class and shape, when it
// ended (seconds into the run) and how long it took.
type completion struct {
	class  class
	kind   string
	at, ms float64
}

// windows is how many equal slices of the run the windowed medians use.
const windows = 10

// windowed splits the run into windows and returns the median over them
// of the completed requests per second and of the median latency. A
// burst of interference on the host moves one window, not the result.
func (r *loopResult) windowed() (opsPerS, p50 float64) {
	rates, p50s := r.perWindow()
	return median(rates), median(p50s)
}

// perWindow returns each window's completed requests per second and its
// median latency.
func (r *loopResult) perWindow() (rates, p50s []float64) {
	width := r.elapsed.Seconds() / windows
	per := make([][]float64, windows)
	for _, c := range r.done {
		w := min(int(c.at/width), windows-1)
		per[w] = append(per[w], c.ms)
	}
	for _, ms := range per {
		rates = append(rates, float64(len(ms))/width)
		if len(ms) > 0 {
			p50s = append(p50s, percentile(ms, 0.5))
		}
	}
	return rates, p50s
}

// latencies returns the milliseconds of the completed requests keep
// selects.
func (r *loopResult) latencies(keep func(completion) bool) []float64 {
	var ms []float64
	for _, c := range r.done {
		if keep(c) {
			ms = append(ms, c.ms)
		}
	}
	return ms
}

// fabricCounts is a snapshot of the fabric's cluster-wide counters.
type fabricCounts struct {
	rpcs, remoteReads, remoteWrites, bytesRead, bytesWritten int64
}

func readFabric(db *a1.DB) fabricCounts {
	m := &db.Fabric().Metrics
	return fabricCounts{m.RPCs.Load(), m.RemoteReads.Load(), m.RemoteWrites.Load(), m.BytesRead.Load(), m.BytesWritten.Load()}
}

func (a fabricCounts) minus(b fabricCounts) fabricCounts {
	return fabricCounts{a.rpcs - b.rpcs, a.remoteReads - b.remoteReads, a.remoteWrites - b.remoteWrites,
		a.bytesRead - b.bytesRead, a.bytesWritten - b.bytesWritten}
}

// gcEvery is the number of commits between db.GCVersions calls.
const gcEvery = 256

// afterCommit runs version GC on the client that completes every
// gcEvery-th commit, concurrently with the other client's requests.
func (e *env) afterCommit(c *a1.Ctx) {
	if e.commits.Add(1)%gcEvery == 0 {
		e.gcVersions(c)
	}
}

// gcVersions runs one cluster-wide version GC and accounts it.
func (e *env) gcVersions(c *a1.Ctx) {
	t0 := time.Now()
	freed := e.db.GCVersions(c)
	e.gcNanos.Add(int64(time.Since(t0)))
	e.gcCalls.Add(1)
	e.gcFreed.Add(int64(freed))
}

// closedLoop drives the workload from clients goroutines for d and checks
// every reply.
func closedLoop(e *env, spec *workloadSpec, seed int64, d time.Duration) *loopResult {
	cls := make([]*client, clients)
	for i := range cls {
		cls[i] = newClient(e, i, seed)
	}
	type local struct {
		done      []completion
		attempted int64
		failures  []string
	}
	locals := make([]local, clients)

	e.acc.reset()
	e.fetchPages.Store(0)
	e.fetchNanos.Store(0)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fab0 := readFabric(e.db)
	h0, m0 := e.db.Engine().PlanCacheStats()
	gc0, cpu0 := gcCPUSeconds()

	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := range cls {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, lc := cls[i], &locals[i]
			for time.Now().Before(deadline) {
				o := spec.next(e, cl)
				lc.attempted++
				t0 := time.Now()
				check, err := o.exec(cl)
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				if err == nil {
					err = check()
				}
				if err != nil {
					lc.failures = append(lc.failures, fmt.Sprintf("client %d %s at %.3fs: %v", cl.id, o.kind, time.Since(start).Seconds(), err))
					continue
				}
				lc.done = append(lc.done, completion{o.class, o.kind, time.Since(start).Seconds(), ms})
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	h1, m1 := e.db.Engine().PlanCacheStats()
	gc1, cpu1 := gcCPUSeconds()

	r := &loopResult{
		elapsed:    elapsed,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		numGC:      uint64(after.NumGC - before.NumGC),
		gcCPU:      (gc1 - gc0) / math.Max(cpu1-cpu0, 1e-9),
		fabric:     readFabric(e.db).minus(fab0),
		planHits:   h1 - h0,
		planMisses: m1 - m0,
	}
	for i := range locals {
		lc := &locals[i]
		r.attempted += lc.attempted
		r.failures = append(r.failures, lc.failures...)
		r.done = append(r.done, lc.done...)
	}
	r.failed = int64(len(r.failures))
	r.completed = r.attempted - r.failed
	for _, cl := range cls {
		if err := spec.drain(e, cl); err != nil {
			r.failures = append(r.failures, fmt.Sprintf("client %d drain: %v", cl.id, err))
			r.failed++
		}
	}
	return r
}

// gcCPUSeconds reads the GC and total CPU seconds the runtime has spent.
func gcCPUSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		total = s[1].Value.Float64()
	}
	return gc, total
}
