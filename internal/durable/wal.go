// Package durable is the repository's persistence subsystem: a
// write-ahead log of observed actions plus versioned, checksummed
// checkpoint snapshots of engine state, built so an Engine restart
// recovers to exactly the state an uninterrupted engine would hold.
//
// The two halves divide the durability work by write rate:
//
//   - The WAL (this file) absorbs the hot path. Every Observe appends one
//     length-prefixed, CRC32C-checksummed record to an append-only
//     segment file; fsync is batched by policy (group commit), segments
//     rotate at a size threshold, and the reader tolerates a torn tail —
//     a crash mid-append loses at most the records after the last fsync,
//     never the log's integrity.
//   - Checkpoints (checkpoint.go) absorb the bulk state. A snapshot
//     persists the dataset, the similarity graph (~10^4× cheaper to load
//     than rebuild), and the live observed-action suffix atomically, and
//     records the WAL index it covers, so recovery is "load newest valid
//     checkpoint, replay the WAL tail".
//
// Everything is standard library only, same as the rest of the repo.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/crcio"
	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// Segment file format:
//
//	magic "WALSEG01" | firstIndex u64
//	| records: (size u32 | crc32c u32 of payload | payload[size])*
//
// Little-endian. firstIndex is the log-wide sequence number of the
// segment's first record; the same value names the file
// ("wal-%016x.seg"), so segment order and coverage are recoverable from
// a directory listing alone. An action payload is
// [type u8 | user u32 | tweet u32 | time i64].

const (
	segMagic      = "WALSEG01"
	segHeaderSize = len(segMagic) + 8
	recHeaderSize = 8 // size u32 + crc u32

	recordAction      = 1
	actionPayloadSize = 17

	// maxRecordSize bounds a declared record length during reads: any
	// larger size is corruption by construction, and the bound keeps a
	// hostile length from forcing an unbounded allocation.
	maxRecordSize = 1 << 16
)

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("durable: WAL is closed")

// ErrFailed is returned by appends after a write error left the active
// segment in an untrustworthy state — a record may sit half-written in
// the buffer or the file, and anything appended after it would land past
// a torn record and be dropped silently by replay (the scan stops at the
// first bad record). The WAL refuses to grow until reopened.
var ErrFailed = errors.New("durable: WAL failed after a write error; reopen to append")

// ErrRecordLogged marks append failures that happen after the record was
// written into the log — a segment rotation or an always-policy fsync
// failed, but the record itself is in the log (possibly already durable)
// and recovery may replay it. Callers that mirror the log into live
// state (Engine.Observe) must treat such a record as logged and apply
// it anyway; skipping the apply would make live and recovered state
// diverge. Test with errors.Is.
var ErrRecordLogged = errors.New("durable: WAL degraded after the record was logged")

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) batches fsyncs on a wall-clock period:
	// appends buffer in memory and a background group commit makes them
	// durable every WALOptions.SyncEvery. A crash loses at most one
	// interval of records — the classic throughput/durability trade.
	SyncInterval SyncPolicy = iota
	// SyncAlways makes every Append durable before it returns.
	SyncAlways
	// SyncNone never fsyncs explicitly (rotation and Close still flush
	// and sync); durability is whatever the OS page cache provides.
	SyncNone
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNone:
		return "none"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses a flag spelling: "always", "interval", "none".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("durable: unknown sync policy %q (want always, interval, or none)", s)
}

// WALOptions configures OpenWAL. The zero value takes defaults.
type WALOptions struct {
	// SegmentSize is the rotation threshold in bytes (default 64 MiB).
	SegmentSize int64
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the group-commit period for SyncInterval
	// (default 50 ms).
	SyncEvery time.Duration
	// Metrics receives the wal/* instruments; nil disables instrumentation
	// (nil instruments are no-ops).
	Metrics *metrics.Registry
}

func (o *WALOptions) defaults() {
	if o.SegmentSize <= 0 {
		o.SegmentSize = 64 << 20
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
}

// WAL is an append-only, segmented, checksummed log of observed actions.
// Append is safe for concurrent use and allocation-free on the steady
// path; one WAL owns one directory.
type WAL struct {
	dir  string
	opts WALOptions

	// mu guards the append state: active segment, buffered writer, size
	// and index bookkeeping, and the durable watermark. fsync never runs
	// under mu — see sync.
	mu   sync.Mutex
	f    *os.File
	bw   *bufio.Writer
	size int64
	next uint64
	// durable is the log's durable watermark: every record below it has
	// been fsynced. It advances only on a successful fsync (a group
	// commit or a rotation), so durable < next means records await one.
	durable uint64
	closed  bool
	failed  bool
	scratch [recHeaderSize + actionPayloadSize]byte

	// syncMu serializes the fsyncs of the group commit, rotation and
	// Close, so the active segment never changes or closes under an
	// fsync. Lock order: syncMu before mu.
	syncMu sync.Mutex

	stopTick chan struct{}
	tickDone chan struct{}

	mRecords   *metrics.Counter
	mBytes     *metrics.Counter
	mSyncs     *metrics.Counter
	mSyncLat   *metrics.Histogram
	mRotations *metrics.Counter
	mSegments  *metrics.Gauge
}

// OpenWAL opens (creating if needed) the WAL in dir. If the newest
// segment ends in a torn record — a crash mid-append — the torn bytes
// are truncated away and appending resumes at the first lost index;
// replay the log with ReplayWAL before opening it for append if those
// records matter (OpenEngine does).
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts.defaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{
		dir:        dir,
		opts:       opts,
		mRecords:   opts.Metrics.Counter("wal/append/records"),
		mBytes:     opts.Metrics.Counter("wal/append/bytes"),
		mSyncs:     opts.Metrics.Counter("wal/fsync/count"),
		mSyncLat:   opts.Metrics.Histogram("wal/fsync/latency_ns"),
		mRotations: opts.Metrics.Counter("wal/rotations"),
		mSegments:  opts.Metrics.Gauge("wal/segments"),
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.openSegmentLocked(0); err != nil {
			return nil, err
		}
		w.mSegments.Set(1)
	} else {
		last := segs[len(segs)-1]
		st, err := scanSegmentFile(last.path, nil)
		if err != nil {
			return nil, fmt.Errorf("durable: scanning %s: %w", last.path, err)
		}
		if st.FirstIndex != last.first {
			return nil, fmt.Errorf("durable: segment %s header says first index %d, name says %d",
				last.path, st.FirstIndex, last.first)
		}
		f, err := os.OpenFile(last.path, os.O_RDWR, 0)
		if err != nil {
			return nil, err
		}
		if st.Torn {
			// Drop the torn tail so appends land on a record boundary.
			if err := f.Truncate(st.GoodBytes); err != nil {
				f.Close()
				return nil, fmt.Errorf("durable: truncating torn tail of %s: %w", last.path, err)
			}
		}
		if _, err := f.Seek(st.GoodBytes, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.f = f
		w.bw = bufio.NewWriterSize(f, 1<<16)
		w.size = st.GoodBytes
		w.next = last.first + uint64(st.Records)
		w.durable = w.next
		w.mSegments.Set(int64(len(segs)))
	}
	if w.opts.Sync == SyncInterval {
		w.stopTick = make(chan struct{})
		w.tickDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// syncLoop is the group-commit ticker for SyncInterval.
func (w *WAL) syncLoop() {
	defer close(w.tickDone)
	tick := time.NewTicker(w.opts.SyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-w.stopTick:
			return
		case <-tick.C:
			w.Sync() // best-effort; Close surfaces the final error
		}
	}
}

// Append writes one action record to the log and returns its index.
// Allocation-free on the steady path; with SyncAlways the record is
// durable before Append returns, otherwise durability follows the sync
// policy. An error wrapping ErrRecordLogged means the record reached the
// log despite the failure — see AppendBuffered.
func (w *WAL) Append(a dataset.Action) (uint64, error) {
	idx, err := w.AppendBuffered(a)
	if err != nil {
		return idx, err
	}
	return idx, w.SyncAfterAppend()
}

// AppendBuffered writes one action record and returns its index without
// the policy's durability wait: even under SyncAlways no fsync happens
// here — the caller completes the append with SyncAfterAppend once the
// record is safe to expose. Engine.Observe appends under its exclusive
// lock (so log order equals apply order) and waits outside it, so a slow
// disk delays the writer, not concurrent readers.
//
// An error wrapping ErrRecordLogged means the record was written into
// the log before the failure and recovery may replay it; any other error
// means it was not logged. Either failure marks the WAL failed: a record
// appended after a torn write would be dropped silently by replay.
func (w *WAL) AppendBuffered(a dataset.Action) (uint64, error) {
	le := binary.LittleEndian
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.failed {
		w.mu.Unlock()
		return 0, ErrFailed
	}
	p := w.scratch[recHeaderSize:]
	p[0] = recordAction
	le.PutUint32(p[1:5], uint32(a.User))
	le.PutUint32(p[5:9], uint32(a.Tweet))
	le.PutUint64(p[9:17], uint64(a.Time))
	le.PutUint32(w.scratch[0:4], actionPayloadSize)
	le.PutUint32(w.scratch[4:8], crcio.Checksum(p[:actionPayloadSize]))
	if _, err := w.bw.Write(w.scratch[:]); err != nil {
		// The record may be half-buffered or half-flushed; nothing may
		// follow it.
		w.failed = true
		w.mu.Unlock()
		return 0, err
	}
	idx := w.next
	w.next++
	w.size += int64(len(w.scratch))
	full := w.size >= w.opts.SegmentSize
	w.mu.Unlock()
	w.mRecords.Inc()
	w.mBytes.Add(uint64(len(w.scratch)))
	if full {
		if err := w.rotate(); err != nil {
			// The record itself was fully buffered before rotation ran, so
			// it is in the log even though the segment handoff failed.
			return idx, fmt.Errorf("%w: rotating segment: %w", ErrRecordLogged, err)
		}
	}
	return idx, nil
}

// SyncAfterAppend completes an AppendBuffered according to the sync
// policy: a group commit under SyncAlways, a no-op otherwise (the ticker
// or rotation flushes later). An error wraps ErrRecordLogged — the
// record is in the log but durability was not reached.
func (w *WAL) SyncAfterAppend() error {
	if w.opts.Sync != SyncAlways {
		return nil
	}
	if err := w.Sync(); err != nil {
		return fmt.Errorf("%w: fsync: %w", ErrRecordLogged, err)
	}
	return nil
}

// NextIndex reports the sequence number the next appended record will
// get — the log's high-water mark.
func (w *WAL) NextIndex() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// EnsureNextIndex guarantees the next appended record gets index at
// least idx, sealing the active segment and opening a fresh one at idx
// when the log is behind. OpenEngine calls it with the recovered
// checkpoint's high-water mark: a crash can lose an un-fsynced WAL tail
// the checkpoint already covers, and without the bump new appends would
// reuse indices below the mark — records the next recovery would
// silently skip.
func (w *WAL) EnsureNextIndex(idx uint64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.next >= idx {
		return nil
	}
	w.next = idx
	return w.rotateLocked()
}

// Sync flushes buffered records to the OS and fsyncs the active
// segment: one group commit. Concurrent appends keep flowing — the
// fsync runs outside the append lock, so it delays durability, not
// writers.
func (w *WAL) Sync() error { return w.sync(false) }

// Barrier makes every record appended so far durable regardless of the
// sync policy — the write barrier a checkpoint needs before recording a
// WAL high-water mark in a durable manifest: even under SyncNone, the
// manifest's claim must not outrun the log on disk, or a crash leaves
// post-restart appends reusing indices below the mark that the next
// recovery silently skips.
func (w *WAL) Barrier() error { return w.sync(true) }

// sync is the group commit. The caller first notes the records it must
// cover (everything appended so far), then queues on syncMu. Whoever
// holds syncMu flushes the buffer and fsyncs every record flushed by
// then, so callers that queued behind it usually find their records
// already below the durable watermark and return without an fsync of
// their own: N concurrent waiters cost one fsync, not N.
//
// A failed flush or fsync marks the WAL failed: part of a record may be
// torn, or the kernel may have dropped the dirty pages after reporting
// the error, so a retried fsync would prove nothing. From then on every
// sync fails and the watermark stays put.
func (w *WAL) sync(force bool) error {
	w.mu.Lock()
	if err := w.flushLocked(); err != nil || w.closed {
		w.mu.Unlock()
		return err
	}
	target := w.next
	skip := w.durable >= target || (w.opts.Sync == SyncNone && !force)
	w.mu.Unlock()
	if skip {
		return nil
	}

	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	if err := w.flushLocked(); err != nil || w.closed || w.durable >= target {
		// Failed, closed (Close synced), or an fsync that began after our
		// records were flushed has already covered them.
		w.mu.Unlock()
		return err
	}
	f, upTo := w.f, w.next
	w.mu.Unlock()
	start := time.Now()
	err := f.Sync()
	w.mSyncLat.ObserveDuration(time.Since(start))
	w.mSyncs.Inc()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err != nil {
		w.failed = true
		return err
	}
	w.durable = upTo
	return nil
}

// flushLocked hands the buffered records to the OS. It fails with
// ErrFailed once the WAL has failed, and marks it failed when the
// flush itself errors. Closed logs flush nothing. Callers hold mu.
func (w *WAL) flushLocked() error {
	if w.closed {
		return nil
	}
	if w.failed {
		return ErrFailed
	}
	if err := w.bw.Flush(); err != nil {
		w.failed = true
		return err
	}
	return nil
}

// rotate retires the active segment if an append has filled it since
// the last rotation; concurrent appends that crossed the threshold
// together rotate once.
func (w *WAL) rotate() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || w.failed || w.size < w.opts.SegmentSize {
		return nil
	}
	if err := w.rotateLocked(); err != nil {
		w.failed = true
		return err
	}
	return nil
}

// rotateLocked retires the active segment (flush, fsync, close) and
// opens a fresh one starting at the current next index. Callers hold
// syncMu and mu.
func (w *WAL) rotateLocked() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	err := w.f.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := w.openSegmentLocked(w.next); err != nil {
		return err
	}
	w.durable = w.next
	w.mRotations.Inc()
	w.mSegments.Add(1)
	return syncDir(w.dir)
}

// openSegmentLocked creates the segment whose first record will be
// index first and writes its header. Callers hold mu (or own w solely).
func (w *WAL) openSegmentLocked(first uint64) error {
	path := segmentPath(w.dir, first)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var hdr [segHeaderSize]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[len(segMagic):], first)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	// Flush the header eagerly so the segment is scannable (header +
	// zero records) the moment it exists on disk.
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.bw = bw
	w.size = int64(segHeaderSize)
	return nil
}

// TruncateBefore deletes segments whose every record index is below idx
// — the segments a checkpoint at high-water mark idx has made redundant.
// The active segment is never deleted. Returns how many segments were
// removed.
func (w *WAL) TruncateBefore(idx uint64) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	segs, err := listSegments(w.dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for i, s := range segs {
		// Deletable iff the next segment starts at or below idx: then
		// every record in this one has index < next.first <= idx.
		if i+1 >= len(segs) || segs[i+1].first > idx {
			break
		}
		if err := os.Remove(s.path); err != nil {
			return removed, err
		}
		removed++
	}
	if removed > 0 {
		w.mSegments.Add(int64(-removed))
		if err := syncDir(w.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// Close flushes, fsyncs, and closes the log. Further appends fail with
// ErrClosed.
func (w *WAL) Close() error {
	w.syncMu.Lock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		w.syncMu.Unlock()
		return nil
	}
	err := w.bw.Flush()
	if serr := w.f.Sync(); err == nil {
		err = serr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.closed = true
	stop := w.stopTick
	w.mu.Unlock()
	w.syncMu.Unlock()
	if stop != nil {
		close(stop)
		<-w.tickDone
	}
	return err
}

// segmentPath names the segment whose first record is index first.
func segmentPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", first))
}

type segmentRef struct {
	path  string
	first uint64
}

// listSegments returns dir's WAL segments sorted by first index.
// Files that merely look like segments but do not parse are ignored.
func listSegments(dir string) ([]segmentRef, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentRef
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), "%016x", &first); err != nil {
			continue
		}
		segs = append(segs, segmentRef{path: filepath.Join(dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	return segs, nil
}

// syncDir fsyncs a directory so renames and removals inside it are
// durable (POSIX requires syncing the parent directory, not the file).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// decodeActionPayload decodes one record payload.
func decodeActionPayload(p []byte) (dataset.Action, error) {
	if len(p) != actionPayloadSize || p[0] != recordAction {
		return dataset.Action{}, fmt.Errorf("durable: malformed action payload (%d bytes)", len(p))
	}
	le := binary.LittleEndian
	return dataset.Action{
		User:  ids.UserID(le.Uint32(p[1:5])),
		Tweet: ids.TweetID(le.Uint32(p[5:9])),
		Time:  ids.Timestamp(le.Uint64(p[9:17])),
	}, nil
}
