// Package metrics is the repository's dependency-free observability
// layer: named counters, gauges, and fixed-bucket log-spaced histograms
// behind a Registry that snapshots the whole instrument tree at once.
//
// Design constraints, in order:
//
//   - Hot-path cost. Every instrument write is lock-free — one or two
//     atomic RMW operations, no allocation, no map lookup (callers
//     resolve instruments by name once, at wiring time, and keep the
//     pointer). Counters shard across padded cache lines so concurrent
//     writers on different cores do not bounce one line.
//   - Nil safety. Methods on nil instruments and the nil Registry are
//     no-ops (or zero reads), so un-instrumented components pay a single
//     predictable branch and wiring stays optional everywhere.
//   - No dependencies. Standard library only, and no wall-clock reads of
//     its own: durations are observed by the caller.
//
// Snapshots are consistent per instrument (each value is one atomic
// load) but not across instruments — the usual, and documented, relaxation
// for serving-system telemetry.
package metrics

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// cacheLine is the assumed coherence-granule size; shards are padded to
// it so two cores bumping different shards never share a line.
const cacheLine = 64

// counterShards is the counter fan-out. Power of two so the shard pick
// is a mask, small enough that Value() stays a trivial sum.
const counterShards = 8

type counterShard struct {
	v atomic.Uint64
	_ [cacheLine - 8]byte
}

// shardHint distributes concurrent writers across shards. Goroutine
// stacks live at distinct addresses, so the address of a local is a
// cheap, allocation-free, stable-per-goroutine value; the low bits are
// dropped because stack slots align identically across goroutines. It is
// only a placement hint — collisions cost a shared line, never
// correctness. The unsafe conversion is address-to-integer (the
// direction vet permits); the pointer itself never outlives the frame.
func shardHint() uintptr {
	var b byte
	return uintptr(unsafe.Pointer(&b)) >> 7
}

// Counter is a monotonically increasing, write-sharded atomic counter:
// concurrent writers land on per-goroutine shards padded to separate
// cache lines, so a hot counter does not serialize cores on one line.
// The zero value is ready to use. All methods are safe for concurrent
// use; methods on a nil *Counter are no-ops.
type Counter struct {
	shards [counterShards]counterShard
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n to the counter.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.shards[shardHint()&(counterShards-1)].v.Add(n)
}

// Value returns the current total.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	var sum uint64
	for i := range c.shards {
		sum += c.shards[i].v.Load()
	}
	return sum
}

// Gauge is an instantaneous level: set, add, read. The zero value is
// ready to use; methods on a nil *Gauge are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge level by d (d may be negative).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the fixed bucket count. Bucket i (i ≥ 1) holds values v
// with 2^(i-1) ≤ v < 2^i; bucket 0 holds v ≤ 0 and the last bucket also
// absorbs everything at or beyond 2^(histBuckets-2). With 44 buckets the
// histogram spans 1 ns .. ~2.4 h when observing durations, and 1 .. ~4·10^12
// when observing plain magnitudes — wide enough for every instrument in
// the repo with a fixed 3.5 KiB footprint.
const histBuckets = 44

// Histogram is a fixed-bucket, log2-spaced histogram with a lock-free
// Observe: one bits.Len to pick the bucket, then three atomic adds (plus
// a CAS loop for the running max). The zero value is ready to use;
// methods on a nil *Histogram are no-ops.
//
// Buckets are powers of two rather than decimal edges: the index is a
// single CLZ instruction, and a factor-2 resolution is plenty for the
// latency questions the histograms answer ("did lock-hold grow with
// stream length", "is p99 milliseconds or seconds").
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// bucketIndex maps a value to its bucket: bits.Len64 of the value,
// clamped to the fixed range.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	i := bits.Len64(uint64(v)) // v in [2^(i-1), 2^i)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// BucketUpper returns the exclusive upper edge of bucket i, as used by
// Observe; the last bucket reports math.MaxInt64.
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0 // bucket 0: v ≤ 0
	}
	if i >= histBuckets-1 {
		return math.MaxInt64
	}
	return int64(1) << uint(i)
}

// NumBuckets returns the fixed bucket count.
func NumBuckets() int { return histBuckets }

// Observe records one value. Lock-free and allocation-free.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// ObserveDuration records a latency in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Snapshot captures the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Upper: BucketUpper(i), Count: n})
		}
	}
	return s
}

// Bucket is one non-empty histogram bucket: Count observations with
// value < Upper (and ≥ the previous bucket's Upper).
type Bucket struct {
	Upper int64  `json:"upper"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Only
// non-empty buckets are kept.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the q-quantile (q in [0,1]) from the buckets. The
// estimate is the upper edge of the bucket holding the q-th observation,
// clamped to Max — a ≤ factor-2 overestimate, which is the histogram's
// resolution by construction.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank >= s.Count {
		rank = s.Count - 1
	}
	var seen uint64
	for _, b := range s.Buckets {
		seen += b.Count
		if rank < seen {
			if b.Upper > s.Max {
				return s.Max
			}
			return b.Upper
		}
	}
	return s.Max
}

// SnapshotAll snapshots each histogram, in order.
func SnapshotAll(hists []*Histogram) []HistogramSnapshot {
	out := make([]HistogramSnapshot, len(hists))
	for i, h := range hists {
		out[i] = h.Snapshot()
	}
	return out
}

// DeltaMerge subtracts prev from cur per histogram and per bucket, then
// merges the deltas into one snapshot: the distribution of everything
// observed between the two SnapshotAll calls, across every histogram
// (one per engine for a sharded fleet). Bucket edges are fixed (log2),
// so subtraction and merge are both keyed on Upper. Max is cumulative
// and cannot be windowed; the merged Max is only used to clamp
// Quantile, so the cumulative value is a safe (conservative) stand-in.
func DeltaMerge(prev, cur []HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	byUpper := make(map[int64]uint64)
	for i := range cur {
		out.Count += cur[i].Count
		out.Sum += cur[i].Sum
		if cur[i].Max > out.Max {
			out.Max = cur[i].Max
		}
		for _, b := range cur[i].Buckets {
			byUpper[b.Upper] += b.Count
		}
		if i < len(prev) {
			out.Count -= prev[i].Count
			out.Sum -= prev[i].Sum
			for _, b := range prev[i].Buckets {
				byUpper[b.Upper] -= b.Count
			}
		}
	}
	for j := 0; j < NumBuckets(); j++ {
		upper := BucketUpper(j)
		if n := byUpper[upper]; n > 0 {
			out.Buckets = append(out.Buckets, Bucket{Upper: upper, Count: n})
		}
	}
	return out
}

// Registry is a namespace of instruments resolved by slash-separated
// path ("engine/recommend/latency_ns"). Resolution is get-or-create and
// idempotent: the same name always returns the same instrument, so a
// component rebuilt mid-run (e.g. a recommender swapped by RefreshGraph)
// keeps accumulating into the same series. Resolution takes a mutex and
// is meant for wiring time, not hot paths.
//
// A nil *Registry is valid: it resolves every name to nil, and nil
// instruments are no-ops.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter resolves (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counts[name]
	if c == nil {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge resolves (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram resolves (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Snapshot captures every registered instrument. Instruments are read
// one atomic load at a time; the snapshot is consistent per instrument,
// not across instruments.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counts) > 0 {
		s.Counters = make(map[string]uint64, len(r.counts))
		for name, c := range r.counts {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
