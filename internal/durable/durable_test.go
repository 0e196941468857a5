package durable

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/wgraph"
)

func testActions(n int) []dataset.Action {
	out := make([]dataset.Action, n)
	for i := range out {
		out[i] = dataset.Action{
			User:  ids.UserID(i % 7),
			Tweet: ids.TweetID(i % 11),
			Time:  ids.Timestamp(i) * ids.Minute,
		}
	}
	return out
}

func appendAll(t *testing.T, w *WAL, actions []dataset.Action) {
	t.Helper()
	for i, a := range actions {
		idx, err := w.Append(a)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		_ = idx
	}
}

func replayAll(t *testing.T, dir string, from uint64) ([]dataset.Action, ReplayStats) {
	t.Helper()
	var got []dataset.Action
	rs, err := ReplayWAL(dir, from, func(idx uint64, a dataset.Action) error {
		got = append(got, a)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, rs
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := testActions(100)
	appendAll(t, w, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replay does not match appended actions")
	}
	if rs.Torn || rs.NextIndex != 100 || rs.Records != 100 {
		t.Fatalf("replay stats = %+v", rs)
	}
}

func TestWALReopenContinuesIndices(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testActions(10))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NextIndex(); got != 10 {
		t.Fatalf("NextIndex after reopen = %d, want 10", got)
	}
	idx, err := w.Append(dataset.Action{User: 1, Tweet: 1, Time: 1})
	if err != nil {
		t.Fatal(err)
	}
	if idx != 10 {
		t.Fatalf("first post-reopen append got index %d, want 10", idx)
	}
	w.Close()
	got, _ := replayAll(t, dir, 0)
	if len(got) != 11 {
		t.Fatalf("replayed %d records, want 11", len(got))
	}
}

func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every few records rotates.
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone, SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	want := testActions(50)
	appendAll(t, w, want)
	if err := w.Sync(); err != nil { // flush so the open log is scannable
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	got, rs := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("multi-segment replay mismatch")
	}
	if rs.Segments != len(segs) {
		t.Fatalf("replay opened %d segments, dir has %d", rs.Segments, len(segs))
	}

	// Truncating before an index must keep every record >= that index.
	const hwm = 30
	removed, err := w.TruncateBefore(hwm)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 {
		t.Fatal("no segments removed")
	}
	got, rs = replayAll(t, dir, hwm)
	if !reflect.DeepEqual(got, want[hwm:]) {
		t.Fatal("post-truncation replay lost records at or above the mark")
	}
	if rs.NextIndex != 50 {
		t.Fatalf("NextIndex after truncation = %d, want 50", rs.NextIndex)
	}
	// The log must keep appending and never delete its active segment.
	if _, err := w.Append(dataset.Action{User: 1, Tweet: 1, Time: 1}); err != nil {
		t.Fatal(err)
	}
	w.Close()
}

func TestWALReplayFrom(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone, SegmentSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	want := testActions(40)
	appendAll(t, w, want)
	w.Close()
	for _, from := range []uint64{0, 1, 17, 39, 40, 100} {
		got, _ := replayAll(t, dir, from)
		exp := []dataset.Action(nil)
		if from < 40 {
			exp = want[from:]
		}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("replay from %d: got %d records, want %d", from, len(got), len(exp))
		}
	}
}

// lastSegment returns the path of the newest segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := listSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments (%v)", err)
	}
	return segs[len(segs)-1].path
}

func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := testActions(20)
	appendAll(t, w, want)
	w.Close()

	// Simulate a crash mid-append: cut the last record in half.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-13], 0o644); err != nil {
		t.Fatal(err)
	}

	got, rs := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, want[:19]) {
		t.Fatalf("torn-tail replay salvaged %d records, want 19", len(got))
	}
	if !rs.Torn || rs.NextIndex != 19 {
		t.Fatalf("replay stats = %+v, want torn with NextIndex 19", rs)
	}

	// Reopening truncates the torn bytes and resumes at the lost index.
	w, err = OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := w.Append(want[19])
	if err != nil {
		t.Fatal(err)
	}
	if idx != 19 {
		t.Fatalf("post-torn append got index %d, want 19", idx)
	}
	w.Close()
	got, rs = replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, want) || rs.Torn {
		t.Fatalf("re-appended log does not round-trip (torn=%v, %d records)", rs.Torn, len(got))
	}
}

func TestWALCorruptRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := testActions(20)
	appendAll(t, w, want)
	w.Close()

	// Flip one payload byte of record 12.
	path := lastSegment(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := segHeaderSize + 12*(recHeaderSize+actionPayloadSize) + recHeaderSize + 3
	raw[off] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	got, rs := replayAll(t, dir, 0)
	if !reflect.DeepEqual(got, want[:12]) {
		t.Fatalf("salvaged %d records before the corrupt one, want 12", len(got))
	}
	if !rs.Torn || rs.TornBytes == 0 {
		t.Fatalf("replay stats = %+v, want torn with dropped bytes counted", rs)
	}
}

func TestWALSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		reg := metrics.NewRegistry()
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{Sync: p, SyncEvery: time.Millisecond, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		want := testActions(25)
		appendAll(t, w, want)
		if p == SyncInterval {
			time.Sleep(10 * time.Millisecond) // let a group commit land
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := replayAll(t, dir, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: replay mismatch", p)
		}
		snap := reg.Snapshot()
		if got := snap.Counter("wal/append/records"); got != 25 {
			t.Fatalf("policy %v: records counter = %d", p, got)
		}
		if p == SyncAlways && snap.Counter("wal/fsync/count") < 25 {
			t.Fatalf("SyncAlways fsynced only %d times", snap.Counter("wal/fsync/count"))
		}
	}
}

func TestWALEnsureNextIndex(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, w, testActions(3))
	if err := w.EnsureNextIndex(3); err != nil { // not behind: no-op
		t.Fatal(err)
	}
	if got := w.NextIndex(); got != 3 {
		t.Fatalf("NextIndex after no-op bump = %d, want 3", got)
	}
	if err := w.EnsureNextIndex(10); err != nil {
		t.Fatal(err)
	}
	if got := w.NextIndex(); got != 10 {
		t.Fatalf("NextIndex after bump = %d, want 10", got)
	}
	idx, err := w.Append(dataset.Action{User: 1, Tweet: 2, Time: 3})
	if err != nil || idx != 10 {
		t.Fatalf("post-bump append = %d, %v, want index 10", idx, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, rs := replayAll(t, dir, 10)
	if len(got) != 1 || rs.NextIndex != 11 {
		t.Fatalf("replay past the bump: %d records, NextIndex %d", len(got), rs.NextIndex)
	}
	// Reopening must resume past the bump, not at the pre-bump count.
	w, err = OpenWAL(dir, WALOptions{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if got := w.NextIndex(); got != 11 {
		t.Fatalf("NextIndex after reopen = %d, want 11", got)
	}
	w.Close()
}

// TestWALBarrierFsyncsEveryPolicy pins the checkpoint write barrier:
// Barrier must flush and fsync even under policies that otherwise defer
// (interval) or skip (none) the fsync.
func TestWALBarrierFsyncsEveryPolicy(t *testing.T) {
	for _, p := range []SyncPolicy{SyncNone, SyncInterval} {
		reg := metrics.NewRegistry()
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{Sync: p, SyncEvery: time.Hour, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		want := testActions(5)
		appendAll(t, w, want)
		if err := w.Barrier(); err != nil {
			t.Fatal(err)
		}
		if got := reg.Snapshot().Counter("wal/fsync/count"); got == 0 {
			t.Fatalf("policy %v: Barrier did not fsync", p)
		}
		// The records are on disk before any Close.
		got, _ := replayAll(t, dir, 0)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %v: on-disk log incomplete after Barrier", p)
		}
		w.Close()
	}
}

// TestWALSyncKeepsDirtyAfterFailedFlush pins the group-commit failure
// contract: a Sync whose flush fails must leave the records below no
// durable watermark, and no later Sync may report them durable, instead
// of believing them safe while they sit in the buffer or page cache.
func TestWALSyncKeepsDirtyAfterFailedFlush(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncInterval, SyncEvery: time.Hour, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(dataset.Action{User: 1, Tweet: 2, Time: 3}); err != nil {
		t.Fatal(err)
	}
	w.f.Close() // the buffered record can no longer reach the file
	if err := w.Sync(); err == nil {
		t.Fatal("Sync flushed to a closed file without error")
	}
	w.mu.Lock()
	dirty := w.durable < w.next
	w.mu.Unlock()
	if !dirty {
		t.Fatal("failed Sync advanced the durable watermark over an unsynced record")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("a Sync after a failed one reported success")
	}
}

// TestWALFailsClosedAfterWriteError: once an append's write errors, part
// of a record may sit torn in the buffer or file, and replay silently
// stops at the first bad record — so the WAL must refuse to grow rather
// than let later records land past the tear and vanish.
func TestWALFailsClosedAfterWriteError(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncNone, Metrics: metrics.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close()
	a := dataset.Action{User: 1, Tweet: 2, Time: 3}
	var firstErr error
	for i := 0; i < 1<<13; i++ { // overflow the write buffer to force a write-through
		if _, firstErr = w.Append(a); firstErr != nil {
			break
		}
	}
	if firstErr == nil {
		t.Fatal("appends through a closed file never failed")
	}
	if _, err := w.Append(a); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after a write error = %v, want ErrFailed", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for s, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(s)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := ParseSyncPolicy("fsync-maybe"); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Seq:            7,
		WALHWM:         12345,
		ObservedNewest: 987654321,
		TrainLen:       -1,
		Files: []ManifestFile{
			{Role: FileDataset, Name: "ckpt-0000000000000007.dataset", Size: 1024, CRC: 0xDEADBEEF},
			{Role: FileGraph, Name: "ckpt-0000000000000007.graph", Size: 2048, CRC: 0xCAFEBABE},
			{Role: FileActions, Name: "ckpt-0000000000000007.actions", Size: 64, CRC: 1},
		},
	}
	got, err := DecodeManifest(EncodeManifest(m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestDetectsCorruption(t *testing.T) {
	m := &Manifest{Seq: 1, WALHWM: 10, Files: []ManifestFile{{Role: FileDataset, Name: "a", Size: 1, CRC: 2}}}
	raw := EncodeManifest(m)
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x10
		if _, err := DecodeManifest(bad); err == nil {
			t.Fatalf("flipped byte %d of %d accepted", i, len(raw))
		}
	}
	if _, err := DecodeManifest(append(raw, 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := DecodeManifest(raw[:len(raw)-1]); err == nil {
		t.Error("truncated manifest accepted")
	}
}

func TestManifestRejectsPathEscapes(t *testing.T) {
	m := &Manifest{Seq: 1, Files: []ManifestFile{{Role: FileDataset, Name: "../../etc/passwd", Size: 1, CRC: 2}}}
	if _, err := DecodeManifest(EncodeManifest(m)); err == nil {
		t.Fatal("manifest naming a path outside the checkpoint dir accepted")
	}
}

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(60, 3))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func writeTestCheckpoint(t *testing.T, dir string, ds *dataset.Dataset, meta CheckpointMeta) WriteResult {
	t.Helper()
	g := gridGraph(ds.NumUsers())
	res, err := WriteCheckpoint(dir, meta, ds, g, ds.Actions[:10])
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// gridGraph builds a small weighted graph for checkpoint tests.
func gridGraph(n int) *wgraph.Graph {
	b := wgraph.NewBuilder(n, n)
	b.SetNumNodes(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(ids.UserID(i), ids.UserID(i+1), float32(i%7)/7+0.1)
	}
	return b.Build()
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t)
	meta := CheckpointMeta{WALHWM: 42, ObservedNewest: 777, TrainLen: -1}
	res := writeTestCheckpoint(t, dir, ds, meta)
	if res.Seq != 1 || res.Bytes == 0 {
		t.Fatalf("write result = %+v", res)
	}
	ck, skipped, err := LoadNewestCheckpoint(dir)
	if err != nil || skipped != 0 || ck == nil {
		t.Fatalf("load: ck=%v skipped=%d err=%v", ck != nil, skipped, err)
	}
	if ck.Manifest.WALHWM != 42 || ck.Manifest.ObservedNewest != 777 || ck.Manifest.TrainLen != -1 {
		t.Fatalf("manifest meta = %+v", ck.Manifest)
	}
	if ck.Dataset.NumUsers() != ds.NumUsers() || len(ck.Actions) != 10 {
		t.Fatal("checkpoint payload mismatch")
	}
	if !reflect.DeepEqual(ck.Actions, ds.Actions[:10]) {
		t.Fatal("actions round-trip mismatch")
	}
	if ck.Graph.NumEdges() != ds.NumUsers()-1 {
		t.Fatalf("graph round-trip: %d edges", ck.Graph.NumEdges())
	}
}

func TestCheckpointFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t)
	writeTestCheckpoint(t, dir, ds, CheckpointMeta{WALHWM: 10})
	res2 := writeTestCheckpoint(t, dir, ds, CheckpointMeta{WALHWM: 20})
	if res2.Seq != 2 {
		t.Fatalf("second checkpoint seq = %d", res2.Seq)
	}

	// Corrupt the newest checkpoint's graph file: load must fall back.
	m2raw, err := os.ReadFile(res2.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := DecodeManifest(m2raw)
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, m2.File(FileGraph).Name)
	raw, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(gpath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := LoadNewestCheckpoint(dir)
	if err != nil || ck == nil {
		t.Fatalf("fallback load failed: %v", err)
	}
	if skipped != 1 || ck.Manifest.Seq != 1 || ck.Manifest.WALHWM != 10 {
		t.Fatalf("fallback landed on seq %d (skipped %d)", ck.Manifest.Seq, skipped)
	}

	// Deleting the newest manifest entirely must also fall back.
	if err := os.Remove(res2.ManifestPath); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err = LoadNewestCheckpoint(dir)
	if err != nil || ck == nil || ck.Manifest.Seq != 1 || skipped != 0 {
		t.Fatalf("post-delete load: seq=%v skipped=%d err=%v", ck != nil, skipped, err)
	}
}

// TestCheckpointRejectsManifestCRCMismatch pins that load verifies each
// file against the manifest's whole-file CRC, not only the codecs' own
// trailers: an internally-consistent file that is not the file the
// manifest describes must be rejected.
func TestCheckpointRejectsManifestCRCMismatch(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t)
	res := writeTestCheckpoint(t, dir, ds, CheckpointMeta{WALHWM: 5})
	raw, err := os.ReadFile(res.ManifestPath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := DecodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	m.Files[1].CRC ^= 1 // manifest now disagrees with the (intact) graph file
	if err := os.WriteFile(res.ManifestPath, EncodeManifest(m), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, skipped, err := LoadNewestCheckpoint(dir)
	if err == nil || ck != nil {
		t.Fatalf("checkpoint with a mismatched manifest CRC loaded (skipped=%d)", skipped)
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("rejection does not name the CRC mismatch: %v", err)
	}
}

func TestCheckpointEmptyDir(t *testing.T) {
	ck, skipped, err := LoadNewestCheckpoint(t.TempDir())
	if ck != nil || skipped != 0 || err != nil {
		t.Fatalf("empty dir: ck=%v skipped=%d err=%v", ck != nil, skipped, err)
	}
	ck, skipped, err = LoadNewestCheckpoint(filepath.Join(t.TempDir(), "missing"))
	if ck != nil || skipped != 0 || err != nil {
		t.Fatalf("missing dir: ck=%v skipped=%d err=%v", ck != nil, skipped, err)
	}
}

func TestPruneCheckpoints(t *testing.T) {
	dir := t.TempDir()
	ds := testDataset(t)
	for i := 1; i <= 4; i++ {
		writeTestCheckpoint(t, dir, ds, CheckpointMeta{WALHWM: uint64(i * 10)})
	}
	pruned, hwm, err := PruneCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pruned != 2 {
		t.Fatalf("pruned %d, want 2", pruned)
	}
	if hwm != 30 {
		t.Fatalf("oldest kept HWM = %d, want 30 (seq 3)", hwm)
	}
	manifests, err := listManifests(dir)
	if err != nil || len(manifests) != 2 {
		t.Fatalf("%d manifests survive, want 2", len(manifests))
	}
	// Pruned checkpoints' data files are gone too.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), "0000000000000001") || strings.Contains(e.Name(), "0000000000000002") {
			t.Fatalf("pruned checkpoint file %s survives", e.Name())
		}
	}
	// The newest survivor still loads.
	ck, _, err := LoadNewestCheckpoint(dir)
	if err != nil || ck.Manifest.Seq != 4 {
		t.Fatalf("newest survivor: %v, %v", ck, err)
	}
}

func TestScanSegmentGarbageHeader(t *testing.T) {
	if _, err := ScanSegment(bytes.NewReader([]byte("not a segment at all")), nil); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := ScanSegment(bytes.NewReader(nil), nil); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestWALGroupCommit pins the SyncAlways group commit: writers whose
// records were all flushed before an fsync began share that fsync. With
// syncMu held, N writers append and queue on the durability wait; once
// every record is in the log the lock is released, and exactly one
// fsync must cover all N.
func TestWALGroupCommit(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	w, err := OpenWAL(t.TempDir(), WALOptions{Sync: SyncAlways, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fsyncs := reg.Counter("wal/fsync/count")
	before := fsyncs.Value()

	w.syncMu.Lock()
	errs := make(chan error, n)
	for _, a := range testActions(n) {
		go func(a dataset.Action) {
			if _, err := w.AppendBuffered(a); err != nil {
				errs <- err
				return
			}
			errs <- w.SyncAfterAppend()
		}(a)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.NextIndex() < n {
		if time.Now().After(deadline) {
			w.syncMu.Unlock()
			t.Fatalf("only %d of %d records appended", w.NextIndex(), n)
		}
		time.Sleep(time.Millisecond)
	}
	w.syncMu.Unlock()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value() - before; got != 1 {
		t.Fatalf("%d writers paid %d fsyncs, want 1 group commit", n, got)
	}
}
