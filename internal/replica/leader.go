// Package replica is the WAL-shipping replication subsystem: a Leader
// that exposes a durability directory's checkpoint and WAL segments
// over HTTP, and a Follower that bootstraps from the newest checkpoint,
// byte-copies the WAL tail into its own directory, and replays the
// shipped actions through a read-only engine — a warm replica that
// serves Recommend/Similarity without touching the leader's lock.
//
// The protocol has three verbs, all GET, all stateless on the wire:
//
//	/wal/segments?from=N&wait=D&id=X&ack=M
//	    JSON listing {"next_index":n,"segments":[{"first":f,"size":s}]}.
//	    With wait, long-polls until next_index > from (capped). id/ack
//	    register the follower's applied index for truncation retention.
//	/wal/segments/{first}?offset=N
//	    Raw segment bytes from offset, straight off the leader's
//	    wal-%016x.seg file. The follower validates framing itself
//	    (durable.TailDecoder), so a chunk cut mid-record is fine.
//	/wal/checkpoint/manifest, /wal/checkpoint/file?name=F
//	    Bootstrap: the newest checkpoint's manifest bytes, then its data
//	    files, each CRC-verified by the follower against the manifest.
//
// Correctness leans entirely on invariants the durable package already
// enforces: segment files are append-only and their names carry their
// first index; a torn tail is truncated on leader restart and rewritten
// in place with records of the SAME indices, and since the follower
// only ever consumes complete CRC-valid frames (never torn bytes), its
// re-fetch from the consumed offset observes that repair transparently.
// See DESIGN.md §16.
package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/metrics"
)

// LeaderOptions configures a Leader. The zero value takes defaults.
type LeaderOptions struct {
	// AckTTL is how long a follower's acknowledged index pins WAL
	// retention after its last listing request (default 10 min). A
	// follower silent for longer is presumed dead and stops holding
	// segments; if it returns it may have to re-bootstrap.
	AckTTL time.Duration
	// MaxWait caps one long-poll listing request (default 30s).
	MaxWait time.Duration
	// ChunkSize caps one segment-fetch response (default 4 MiB).
	ChunkSize int64
	// Metrics receives the replica/leader/* instruments; nil disables.
	Metrics *metrics.Registry
	// Clock overrides time.Now, for ack-expiry tests.
	Clock func() time.Time
}

// Leader serves a durability directory to followers. It holds no lock
// against the engine writing the directory: segment files are
// append-only and checkpoints are manifest-last atomic, so plain reads
// race harmlessly with the writer (a short read of a growing segment
// just means fewer bytes this round).
type Leader struct {
	dir  string
	next func() uint64
	opts LeaderOptions
	mux  *http.ServeMux

	mu   sync.Mutex
	acks map[string]ackEntry

	mLists     *metrics.Counter // replica/leader/list_requests
	mFetches   *metrics.Counter // replica/leader/segment_requests
	mBytes     *metrics.Counter // replica/leader/segment_bytes
	mCkptReqs  *metrics.Counter // replica/leader/checkpoint_requests
	gFollowers *metrics.Gauge   // replica/leader/followers
	gFloor     *metrics.Gauge   // replica/leader/retain_floor
}

type ackEntry struct {
	idx  uint64
	seen time.Time
}

// NewLeader serves the WAL and checkpoints in dir; next reports the
// leader log's next append index (Engine.WALNextIndex for an
// Engine-owned WAL; cmd/serveload -serve-wal wires it so). Mount
// Handler under "/wal/", or pass the leader as server.Options.Replication.
func NewLeader(dir string, next func() uint64, opts LeaderOptions) *Leader {
	if opts.AckTTL <= 0 {
		opts.AckTTL = 10 * time.Minute
	}
	if opts.MaxWait <= 0 {
		opts.MaxWait = 30 * time.Second
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = 4 << 20
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	l := &Leader{
		dir:        dir,
		next:       next,
		opts:       opts,
		acks:       map[string]ackEntry{},
		mLists:     opts.Metrics.Counter("replica/leader/list_requests"),
		mFetches:   opts.Metrics.Counter("replica/leader/segment_requests"),
		mBytes:     opts.Metrics.Counter("replica/leader/segment_bytes"),
		mCkptReqs:  opts.Metrics.Counter("replica/leader/checkpoint_requests"),
		gFollowers: opts.Metrics.Gauge("replica/leader/followers"),
		gFloor:     opts.Metrics.Gauge("replica/leader/retain_floor"),
	}
	l.mux = http.NewServeMux()
	l.mux.HandleFunc("/wal/segments", l.handleList)
	l.mux.HandleFunc("/wal/segments/", l.handleFetch)
	l.mux.HandleFunc("/wal/checkpoint/manifest", l.handleManifest)
	l.mux.HandleFunc("/wal/checkpoint/file", l.handleFile)
	return l
}

// Handler returns the leader's HTTP tree, rooted at /wal/.
func (l *Leader) Handler() http.Handler { return l.mux }

// RetainFloor reports the minimum index acknowledged by any live
// follower, and whether any follower is live at all — the value
// Engine.SetWALRetainFloor consumes to pin segment truncation.
func (l *Leader) RetainFloor() (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expireLocked()
	var floor uint64
	ok := false
	for _, a := range l.acks {
		if !ok || a.idx < floor {
			floor = a.idx
			ok = true
		}
	}
	return floor, ok
}

// expireLocked drops acks past their TTL and refreshes the gauges.
func (l *Leader) expireLocked() {
	now := l.opts.Clock()
	for id, a := range l.acks {
		if now.Sub(a.seen) > l.opts.AckTTL {
			delete(l.acks, id)
		}
	}
	l.gFollowers.Set(int64(len(l.acks)))
}

// segmentListing is the /wal/segments response body.
type segmentListing struct {
	NextIndex uint64                `json:"next_index"`
	Segments  []durable.SegmentInfo `json:"segments"`
}

func (l *Leader) handleList(w http.ResponseWriter, r *http.Request) {
	l.mLists.Inc()
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		ack, err := strconv.ParseUint(q.Get("ack"), 10, 64)
		if err != nil && q.Get("ack") != "" {
			http.Error(w, "ack: "+err.Error(), http.StatusBadRequest)
			return
		}
		l.mu.Lock()
		l.acks[id] = ackEntry{idx: ack, seen: l.opts.Clock()}
		l.expireLocked()
		if floor, ok := l.RetainFloorLocked(); ok {
			l.gFloor.Set(int64(floor))
		}
		l.mu.Unlock()
	}
	from, _ := strconv.ParseUint(q.Get("from"), 10, 64)
	if v := q.Get("wait"); v != "" {
		wait, err := time.ParseDuration(v)
		if err != nil {
			http.Error(w, "wait: "+err.Error(), http.StatusBadRequest)
			return
		}
		if wait > l.opts.MaxWait {
			wait = l.opts.MaxWait
		}
		// Long poll: hold the request until the log grows past the
		// follower's position. 25 ms polling keeps this dependency-free
		// (no condvar plumbed through the engine) at a cost far below
		// the fetch round-trip it saves.
		deadline := time.Now().Add(wait)
		for l.next() <= from && time.Now().Before(deadline) {
			select {
			case <-r.Context().Done():
				return
			case <-time.After(25 * time.Millisecond):
			}
		}
	}
	segs, err := durable.ListWALSegments(l.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(segmentListing{NextIndex: l.next(), Segments: segs})
}

// RetainFloorLocked is RetainFloor for callers already holding mu.
func (l *Leader) RetainFloorLocked() (uint64, bool) {
	var floor uint64
	ok := false
	for _, a := range l.acks {
		if !ok || a.idx < floor {
			floor = a.idx
			ok = true
		}
	}
	return floor, ok
}

func (l *Leader) handleFetch(w http.ResponseWriter, r *http.Request) {
	l.mFetches.Inc()
	name := strings.TrimPrefix(r.URL.Path, "/wal/segments/")
	first, err := strconv.ParseUint(name, 10, 64)
	if err != nil {
		http.Error(w, "segment index: "+err.Error(), http.StatusBadRequest)
		return
	}
	offset, err := strconv.ParseInt(r.URL.Query().Get("offset"), 10, 64)
	if err != nil && r.URL.Query().Get("offset") != "" {
		http.Error(w, "offset: "+err.Error(), http.StatusBadRequest)
		return
	}
	if offset < 0 {
		http.Error(w, "offset must be non-negative", http.StatusBadRequest)
		return
	}
	f, err := os.Open(filepath.Join(l.dir, durable.SegmentFileName(first)))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			http.Error(w, "segment truncated or never existed", http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	n := st.Size() - offset
	if n < 0 {
		n = 0
	}
	if n > l.opts.ChunkSize {
		n = l.opts.ChunkSize
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Wal-Next-Index", strconv.FormatUint(l.next(), 10))
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	sent, _ := io.Copy(w, io.NewSectionReader(f, offset, n))
	l.mBytes.Add(uint64(sent))
}

func (l *Leader) handleManifest(w http.ResponseWriter, r *http.Request) {
	l.mCkptReqs.Inc()
	raw, m, err := durable.NewestManifest(l.dir)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if m == nil {
		http.Error(w, "no checkpoint yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Ckpt-Seq", strconv.FormatUint(m.Seq, 10))
	w.Write(raw)
}

func (l *Leader) handleFile(w http.ResponseWriter, r *http.Request) {
	l.mCkptReqs.Inc()
	name := r.URL.Query().Get("name")
	if name == "" || name != filepath.Base(name) {
		http.Error(w, "name must be a bare checkpoint file name", http.StatusBadRequest)
		return
	}
	// Serve only files the current newest manifest lists: a stale or
	// hostile name never escapes the checkpoint set (and never the
	// directory). A prune race — the manifest rolling between the
	// follower's manifest fetch and this one — 404s here; the follower's
	// whole-bootstrap retry handles it.
	_, m, err := durable.NewestManifest(l.dir)
	if err != nil || m == nil {
		http.Error(w, "no checkpoint yet", http.StatusNotFound)
		return
	}
	listed := false
	for _, f := range m.Files {
		if f.Name == name {
			listed = true
			break
		}
	}
	if !listed {
		http.Error(w, fmt.Sprintf("%s is not in checkpoint seq %d", name, m.Seq), http.StatusNotFound)
		return
	}
	f, err := os.Open(filepath.Join(l.dir, name))
	if err != nil {
		http.Error(w, "checkpoint file vanished", http.StatusNotFound)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	io.Copy(w, f)
}
