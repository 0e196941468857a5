package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/server"
)

// The traced run records spans only from the benchmark's own code: the
// client round trips, and two wrappers around public seams of the
// program — the server.Backend handed to server.New and the ActionLog
// handed to the engine as EngineOptions.WAL. Spans stay in memory and
// are written out when the run ends.

type spanKind uint8

const (
	kindRead           spanKind = iota // client: GET /recommend round trip
	kindObserve                        // client: POST /observe round trip
	kindRecommend                      // Backend.RecommendWithColdStart
	kindBatch                          // Backend.ObserveBatch
	kindAppend                         // ActionLog.Append
	kindAppendBuffered                 // ActionLog AppendBuffered
	kindSyncWait                       // ActionLog SyncAfterAppend
	kindBarrier                        // ActionLog Barrier
)

var kindNames = [...]string{
	kindRead:           "client.read",
	kindObserve:        "client.observe",
	kindRecommend:      "engine.recommend",
	kindBatch:          "engine.observe_batch",
	kindAppend:         "wal.append",
	kindAppendBuffered: "wal.append_buffered",
	kindSyncWait:       "wal.sync_after_append",
	kindBarrier:        "wal.barrier",
}

// span is one timed call. Reads are keyed by user; writes by their
// action, which is unique per request. Start and End are nanoseconds
// since the tracer was created.
type span struct {
	ID, Parent uint64
	Kind       spanKind
	OK         bool  // client spans: 2xx response
	Hit        bool  // client reads: served from the server cache
	Cold       bool  // engine.recommend: cold-start fallback answered
	Empty      bool  // engine.recommend: no recommendation
	N          int32 // engine.observe_batch: actions in the batch
	Start, End int64
	User       repro.UserID
	Action     repro.Action
}

func (s span) dur() int64 { return s.End - s.Start }

// link ties a client observe span to the ObserveBatch that applied it.
type link struct{ client, batch uint64 }

type tracer struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
	links []link

	// In-flight client requests, so a backend call can name its parent.
	inflightMu sync.Mutex
	reads      map[repro.UserID][]inflightRead
	writes     map[repro.Action]uint64

	// batch is the ObserveBatch span in flight. The server's batcher
	// keeps at most one flush in the backend at a time, so WAL calls
	// made meanwhile belong to it.
	batch atomic.Uint64

	// Score-change hook traffic: users named, and nil (full) flushes.
	invalidated atomic.Int64
	fullFlushes atomic.Int64
}

type inflightRead struct {
	id      uint64
	claimed bool
}

func newTracer() *tracer {
	return &tracer{
		base:   time.Now(),
		reads:  map[repro.UserID][]inflightRead{},
		writes: map[repro.Action]uint64{},
	}
}

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.base)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) beginRead(u repro.UserID) uint64 {
	id := t.ids.Add(1)
	t.inflightMu.Lock()
	t.reads[u] = append(t.reads[u], inflightRead{id: id})
	t.inflightMu.Unlock()
	return id
}

func (t *tracer) endRead(id uint64, u repro.UserID, t0, t1 time.Time, ok bool, verdict string) {
	t.inflightMu.Lock()
	l := t.reads[u]
	for i := range l {
		if l[i].id == id {
			l = append(l[:i], l[i+1:]...)
			break
		}
	}
	if len(l) == 0 {
		delete(t.reads, u)
	} else {
		t.reads[u] = l
	}
	t.inflightMu.Unlock()
	t.record(span{ID: id, Kind: kindRead, OK: ok, Hit: verdict == "hit", Start: t.at(t0), End: t.at(t1), User: u})
}

// readParent claims the oldest unclaimed in-flight read of u.
func (t *tracer) readParent(u repro.UserID) uint64 {
	t.inflightMu.Lock()
	defer t.inflightMu.Unlock()
	l := t.reads[u]
	for i := range l {
		if !l[i].claimed {
			l[i].claimed = true
			return l[i].id
		}
	}
	return 0
}

func (t *tracer) beginObserve(a repro.Action) uint64 {
	id := t.ids.Add(1)
	t.inflightMu.Lock()
	t.writes[a] = id
	t.inflightMu.Unlock()
	return id
}

func (t *tracer) endObserve(id uint64, a repro.Action, t0, t1 time.Time, ok bool) {
	t.inflightMu.Lock()
	delete(t.writes, a)
	t.inflightMu.Unlock()
	t.record(span{ID: id, Kind: kindObserve, OK: ok, Start: t.at(t0), End: t.at(t1), Action: a})
}

// snapshot returns the spans and links recorded so far.
func (t *tracer) snapshot() ([]span, []link) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]link(nil), t.links...)
}

// writeFile writes every span as CSV.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	spans, _ := t.snapshot()
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,user,tweet,time,n,ok,hit,cold,empty")
	for _, s := range spans {
		u := s.User
		if s.Kind != kindRead && s.Kind != kindRecommend {
			u = s.Action.User
		}
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%d,%d,%t,%t,%t,%t\n", s.ID, s.Parent, kindNames[s.Kind], s.Start, s.End,
			u, s.Action.Tweet, s.Action.Time, s.N, s.OK, s.Hit, s.Cold, s.Empty)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBackend wraps the server's Backend around the calls that reach
// the engine and the score-change hook the cache hangs on.
type tracedBackend struct {
	server.Backend
	tr *tracer
}

func (b *tracedBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	parent := b.tr.readParent(u)
	t0 := time.Now()
	recs, cold := b.Backend.RecommendWithColdStart(u, k, now)
	t1 := time.Now()
	b.tr.record(span{ID: b.tr.ids.Add(1), Parent: parent, Kind: kindRecommend, Cold: cold, Empty: len(recs) == 0,
		Start: b.tr.at(t0), End: b.tr.at(t1), User: u})
	return recs, cold
}

func (b *tracedBackend) ObserveBatch(actions []repro.Action) []error {
	id := b.tr.ids.Add(1)
	var parent uint64
	links := make([]link, 0, len(actions))
	b.tr.inflightMu.Lock()
	for _, a := range actions {
		c := b.tr.writes[a]
		if parent == 0 {
			parent = c
		}
		links = append(links, link{client: c, batch: id})
	}
	b.tr.inflightMu.Unlock()

	b.tr.batch.Store(id)
	t0 := time.Now()
	errs := b.Backend.ObserveBatch(actions)
	t1 := time.Now()
	b.tr.batch.Store(0)

	b.tr.mu.Lock()
	b.tr.spans = append(b.tr.spans, span{ID: id, Parent: parent, Kind: kindBatch, N: int32(len(actions)),
		Start: b.tr.at(t0), End: b.tr.at(t1), Action: actions[0]})
	b.tr.links = append(b.tr.links, links...)
	b.tr.mu.Unlock()
	return errs
}

func (b *tracedBackend) SetOnScoresChanged(fn func(users []repro.UserID)) {
	if fn == nil {
		b.Backend.SetOnScoresChanged(nil)
		return
	}
	b.Backend.SetOnScoresChanged(func(users []repro.UserID) {
		if users == nil {
			b.tr.fullFlushes.Add(1)
		} else {
			b.tr.invalidated.Add(int64(len(users)))
		}
		fn(users)
	})
}

// tracedWAL wraps the engine's WAL. It implements the whole method set
// the engine looks for — the buffered append with the durability wait
// after the lock, and the checkpoint barrier — so the traced engine
// takes the same path as the untraced one.
type tracedWAL struct {
	w  *durable.WAL
	tr *tracer
}

var _ interface {
	repro.ActionLog
	AppendBuffered(repro.Action) (uint64, error)
	SyncAfterAppend() error
	Barrier() error
} = (*tracedWAL)(nil)

func (l *tracedWAL) span(kind spanKind, a repro.Action, t0 time.Time) {
	l.tr.record(span{ID: l.tr.ids.Add(1), Parent: l.tr.batch.Load(), Kind: kind,
		Start: l.tr.at(t0), End: l.tr.at(time.Now()), Action: a})
}

func (l *tracedWAL) Append(a repro.Action) (uint64, error) {
	t0 := time.Now()
	idx, err := l.w.Append(a)
	l.span(kindAppend, a, t0)
	return idx, err
}

func (l *tracedWAL) AppendBuffered(a repro.Action) (uint64, error) {
	t0 := time.Now()
	idx, err := l.w.AppendBuffered(a)
	l.span(kindAppendBuffered, a, t0)
	return idx, err
}

func (l *tracedWAL) SyncAfterAppend() error {
	t0 := time.Now()
	err := l.w.SyncAfterAppend()
	l.span(kindSyncWait, repro.Action{}, t0)
	return err
}

func (l *tracedWAL) Barrier() error {
	t0 := time.Now()
	err := l.w.Barrier()
	l.span(kindBarrier, repro.Action{}, t0)
	return err
}

func (l *tracedWAL) NextIndex() uint64 { return l.w.NextIndex() }
