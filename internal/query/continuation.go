package query

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"a1/internal/fabric"
)

// Continuation tokens (paper §3.4): when a result set exceeds one page the
// coordinator returns a token encoding its own identity and keeps the rest
// of the result in memory for a limited time (ResultTTL, typically 60
// seconds). Frontends decode the coordinator from the token and route
// fetches to it; if the state expired or the coordinator crashed, the
// client restarts the query.
//
// Every paged result has one shape, a pageSource, and one lifecycle. run()
// takes the first page from the source; a source with more to give goes
// into the coordinator's cursor store, and each Fetch claims it under the
// store lock, pages it with no lock held (a page may pull parked group
// runs or step a `_recurse` expansion over the fabric), and puts it back
// under the same id while more remains. The state dies when its stream
// drains, on Release, on a coordinator crash (DropResultsOn), on a Fetch
// of its token after the TTL, or — for an abandoned cursor — at the first
// put into its machine's store after the TTL.
//
// The worker run tails behind a grouped source die with it: closing the
// source (drain, Release, a failed page, expiry) drops those still parked,
// and a grouping whose fan-out fails drops the tails its other batches
// parked. Only a coordinator crash leaves them to the TTL of the workers'
// run stores.

// pageSource is the rest of one paged result: a materialized row slice
// (rowSlice), the streamed group merge behind its _skip/_limit pager
// (pager), or a parked `_recurse` expansion (recursePager).
type pageSource interface {
	// nextPage fills res with up to n rows or groups, accounts the work it
	// did into res.Stats, and reports whether more remain.
	nextPage(c *fabric.Ctx, n int, res *Result) (more bool, err error)
	// close releases what the source holds (spill tables, snapshot pins,
	// pooled buffers). It runs exactly once per source, never under a
	// store lock.
	close(e *Engine)
}

// rowSlice pages a fully materialized row result.
type rowSlice []Row

func (s *rowSlice) nextPage(_ *fabric.Ctx, n int, res *Result) (bool, error) {
	rows := *s
	if len(rows) > n {
		res.Rows, *s = rows[:n], rows[n:]
		return true, nil
	}
	res.Rows, *s = rows, nil
	return false, nil
}

func (*rowSlice) close(*Engine) {}

// ttlStore is one machine's time-limited state keyed by id. Each machine
// has two: the coordinator's cursor store (pageSources behind tokens) and
// the worker's run store (parked group-run tails). Every put expires the
// store's stale entries, so abandoned state dies at the first put on its
// machine after its TTL. drop tears an entry down and is always called
// without mu held: closing a source can release spill tables and snapshot
// pins.
type ttlStore[T any] struct {
	mu      sync.Mutex
	nextID  uint64
	gen     uint64 // bumped by reset; entries claimed before it stay dead
	entries map[uint64]*ttlEntry[T]
	drop    func(T) // nil: entries need no teardown
}

type ttlEntry[T any] struct {
	val     T
	expires time.Duration
	gen     uint64
}

func newTTLStore[T any](drop func(T)) *ttlStore[T] {
	return &ttlStore[T]{entries: make(map[uint64]*ttlEntry[T]), drop: drop}
}

// put stores v for ttl and returns its id.
func (s *ttlStore[T]) put(c *fabric.Ctx, ttl time.Duration, v T) uint64 {
	now := c.Now()
	s.mu.Lock()
	stale := s.takeExpiredLocked(now)
	s.nextID++
	id := s.nextID
	s.entries[id] = &ttlEntry[T]{val: v, expires: now + ttl, gen: s.gen}
	s.mu.Unlock()
	s.dropAll(stale)
	return id
}

// claim removes a live entry and hands it to the caller, who may restore
// it. A concurrent claim of the same id finds nothing — the same answer a
// client gets after expiry. An expired entry is dropped and reported
// missing.
func (s *ttlStore[T]) claim(c *fabric.Ctx, id uint64) (*ttlEntry[T], bool) {
	s.mu.Lock()
	ent, ok := s.entries[id]
	delete(s.entries, id)
	s.mu.Unlock()
	if ok && c.Now() >= ent.expires {
		if s.drop != nil {
			s.drop(ent.val)
		}
		return nil, false
	}
	return ent, ok
}

// restore puts a claimed entry back under its id; the deadline set by put
// still holds. An entry whose store was reset while it was claimed died in
// that crash: it is dropped instead.
func (s *ttlStore[T]) restore(id uint64, ent *ttlEntry[T]) {
	s.mu.Lock()
	live := ent.gen == s.gen
	if live {
		s.entries[id] = ent
	}
	s.mu.Unlock()
	if !live && s.drop != nil {
		s.drop(ent.val)
	}
}

// remove drops the entry under id at once, whatever its deadline. An id
// no longer in the store (drained, swept or claimed) is a no-op.
func (s *ttlStore[T]) remove(id uint64) {
	s.mu.Lock()
	ent, ok := s.entries[id]
	delete(s.entries, id)
	s.mu.Unlock()
	if ok && s.drop != nil {
		s.drop(ent.val)
	}
}

// generation counts the resets (crashes) the store has seen.
func (s *ttlStore[T]) generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// expire drops every entry past its deadline and returns how many.
func (s *ttlStore[T]) expire(now time.Duration) int {
	s.mu.Lock()
	stale := s.takeExpiredLocked(now)
	s.mu.Unlock()
	s.dropAll(stale)
	return len(stale)
}

// reset drops every entry (a crash of the machine holding them),
// including those claimed right now, which restore then drops.
func (s *ttlStore[T]) reset() {
	s.mu.Lock()
	s.gen++
	old := s.entries
	s.entries = make(map[uint64]*ttlEntry[T])
	s.mu.Unlock()
	s.dropAll(old)
}

func (s *ttlStore[T]) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

func (s *ttlStore[T]) takeExpiredLocked(now time.Duration) map[uint64]*ttlEntry[T] {
	var stale map[uint64]*ttlEntry[T]
	for id, ent := range s.entries {
		if now >= ent.expires {
			if stale == nil {
				stale = make(map[uint64]*ttlEntry[T])
			}
			stale[id] = ent
			delete(s.entries, id)
		}
	}
	return stale
}

func (s *ttlStore[T]) dropAll(ents map[uint64]*ttlEntry[T]) {
	if s.drop == nil {
		return
	}
	for _, ent := range ents {
		s.drop(ent.val)
	}
}

type tokenPayload struct {
	M  int32  `json:"m"`            // coordinator machine
	ID uint64 `json:"id"`           // cursor store entry
	PS int    `json:"ps,omitempty"` // page size that shaped the first page
}

func encodeToken(m fabric.MachineID, id uint64, pageSize int) string {
	b, _ := json.Marshal(tokenPayload{M: int32(m), ID: id, PS: pageSize})
	return base64.URLEncoding.EncodeToString(b)
}

func decodeToken(token string) (tokenPayload, error) {
	var p tokenPayload
	raw, err := base64.URLEncoding.DecodeString(token)
	if err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	return p, nil
}

// DecodeToken extracts the coordinator machine a token belongs to, so a
// frontend can route the fetch.
func DecodeToken(token string) (fabric.MachineID, uint64, error) {
	p, err := decodeToken(token)
	if err != nil {
		return 0, 0, classify(err)
	}
	return fabric.MachineID(p.M), p.ID, nil
}

// firstPage takes a result's first page from src into res and parks the
// source behind a continuation token when more remains. The page's work
// accounts into the query's own stats.
func (st *execState) firstPage(qc *fabric.Ctx, res *Result, src pageSource, pageSize int) error {
	e := st.engine
	res.Stats = st.stats
	more, err := src.nextPage(qc, pageSize, res)
	st.stats = res.Stats
	if err != nil {
		src.close(e)
		return err
	}
	if !more {
		src.close(e)
		return nil
	}
	id := e.cursors[qc.M].put(qc, e.cfg.ResultTTL, src)
	res.Continuation = encodeToken(qc.M, id, pageSize)
	return nil
}

// Fetch returns the next page for a continuation token. It must execute on
// the coordinator that issued the token (frontends guarantee this via
// DecodeToken routing). The token carries the page size that shaped the
// first page, so every page of one query agrees even when the client hinted
// a custom _pagesize. Ordered results were sorted once at the coordinator
// before the first page, so later pages stay sorted across fetches.
func (e *Engine) Fetch(c *fabric.Ctx, token string) (*Result, error) {
	p, err := decodeToken(token)
	if err != nil {
		return nil, classify(err)
	}
	if m := fabric.MachineID(p.M); m != c.M {
		return nil, classify(fmt.Errorf("%w: token belongs to %v, fetched on %v", ErrBadToken, m, c.M))
	}
	pageSize := p.PS
	if pageSize <= 0 {
		pageSize = e.cfg.PageSize
	}
	cursors := e.cursors[c.M]
	ent, ok := cursors.claim(c, p.ID)
	if !ok {
		return nil, classify(fmt.Errorf("%w: expired; restart the query", ErrBadToken))
	}
	res := &Result{}
	more, err := ent.val.nextPage(c, pageSize, res)
	if err != nil {
		ent.val.close(e)
		return nil, classify(err)
	}
	if !more {
		ent.val.close(e)
		return res, nil
	}
	cursors.restore(p.ID, ent) // same id: the client's token stays valid
	res.Continuation = token
	return res, nil
}

// Release drops the continuation state behind a token without fetching it
// — the cursor Close path. Like Fetch it must run on the coordinator that
// issued the token. Releasing an already-expired or consumed token is not
// an error.
func (e *Engine) Release(c *fabric.Ctx, token string) error {
	p, err := decodeToken(token)
	if err != nil {
		return classify(err)
	}
	if m := fabric.MachineID(p.M); m != c.M {
		return classify(fmt.Errorf("%w: token belongs to %v, released on %v", ErrBadToken, m, c.M))
	}
	e.cursors[c.M].remove(p.ID)
	return nil
}

// PendingResults counts live continuation entries on machine m — the
// observable for cursor-release and expiry tests.
func (e *Engine) PendingResults(m fabric.MachineID) int {
	return e.cursors[m].count()
}

// PendingRuns counts group-run tails parked on machine m — the observable
// for the streamed-group expiry tests and the groupcard bench.
func (e *Engine) PendingRuns(m fabric.MachineID) int {
	return e.runs[m].count()
}

// ExpireResults drops the timed-out state on c's machine — its cursors
// (their spill tables and snapshot pins are released) and its parked
// group-run tails — and returns how many entries went. Every put already
// sweeps its own store; calling this sweeps both now.
func (e *Engine) ExpireResults(c *fabric.Ctx) int {
	now := c.Now()
	return e.cursors[c.M].expire(now) + e.runs[c.M].expire(now)
}

// DropResultsOn simulates a coordinator crash wiping its cursors and its
// parked group-run tails (clients must restart their queries; run tails
// this machine's queries parked elsewhere die by TTL).
func (e *Engine) DropResultsOn(m fabric.MachineID) {
	e.cursors[m].reset()
	e.runs[m].reset()
}
