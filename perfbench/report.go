package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/metrics"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are what a user of the server sees; every workload
// reports all of them. rps, p50_us and p90_us cover the workload's
// closed-loop requests (reads on feed-mixed and timeline-read, writes on
// ingest), so none is structurally zero; feed-mixed's paced writer is
// background load whose latency the per-layer client.observe_* metrics
// and the by-op line report. ok_frac counts every request. The tail is
// p90: p99 moved by more than the largest bound from run to run on a
// two-CPU box, so it is reported per layer (client.*_us_p99).
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rps", "1/s"},
	{"p50_us", "us"},
	{"p90_us", "us"},
	{"ok_frac", "ratio"},
	{"heap_mb", "MB"},
}

// perLayerMetrics are reported by traced runs. A layer a workload does
// not reach reports 0 (for example wal.* without a WAL). client.observe_*
// covers every write, the paced ones timed from their due time. The
// per-observe ratios and the frontier width leave out the refresh
// windows, whose replay counts into the same counters and hook; the
// engine.refresh.* per-refresh figures report that replay.
var perLayerMetrics = []struct{ name, unit string }{
	{"client.read_rps", "1/s"},
	{"client.read_us_p50", "us"},
	{"client.read_us_p99", "us"},
	{"client.observe_rps", "1/s"},
	{"client.observe_us_p50", "us"},
	{"client.observe_us_p99", "us"},
	{"server.read.self_us_p50", "us"},
	{"server.read.self_us_p99", "us"},
	{"server.cache.hit_ratio", "ratio"},
	{"server.cache.bypass_frac", "ratio"},
	{"server.cache.invalidated_users_per_observe", "users/observe"},
	{"server.cache.full_flushes", "count"},
	{"server.observe.self_us_p50", "us"},
	{"server.batch.mean_size", "actions/batch"},
	{"engine.recommend.warm_us_p50", "us"},
	{"engine.recommend.warm_us_p99", "us"},
	{"engine.recommend.cold_us_p50", "us"},
	{"engine.recommend.cold_us_p99", "us"},
	{"engine.recommend.cold_frac", "ratio"},
	{"engine.recommend.empty_frac", "ratio"},
	{"engine.busy_frac", "ratio"},
	{"engine.observe_batch.us_p50", "us"},
	{"engine.observe_batch.us_p99", "us"},
	{"engine.observe_batch.self_us_p50", "us"},
	{"engine.refresh.count", "count"},
	{"engine.refresh.build_ms", "ms"},
	{"engine.refresh.write_stall_ms", "ms"},
	{"engine.refresh.lock_hold_ms", "ms"},
	{"engine.refresh.replayed_actions", "actions/refresh"},
	{"engine.refresh.recomputations", "users/refresh"},
	{"engine.refresh.invalidated_users", "users/refresh"},
	{"propagation.recomputations_per_observe", "users/observe"},
	{"propagation.rounds_per_observe", "rounds/observe"},
	{"propagation.frontier_width_p99", "users"},
	{"propagation.live_states", "count"},
	{"wal.append_us_p50", "us"},
	{"wal.append_us_p99", "us"},
	{"wal.sync_wait_us_p99", "us"},
	{"wal.fsync_us_p99", "us"},
	{"wal.records_per_fsync", "records/fsync"},
	{"setup.engine_build_s", "s"},
	{"setup.warmup_s", "s"},
	{"setup.warmup_us_per_action", "us/action"},
	{"gen.writer_lateness_us_p99", "us"},
}

// withUnits attaches units to vals, which must name exactly the metrics
// in table.
func withUnits(table []struct{ name, unit string }, vals map[string]float64) map[string]metric {
	if len(vals) != len(table) {
		panic(fmt.Sprintf("perfbench: %d metric values for %d metrics", len(vals), len(table)))
	}
	out := make(map[string]metric, len(table))
	for _, m := range table {
		v, ok := vals[m.name]
		if !ok {
			panic("perfbench: no value for metric " + m.name)
		}
		out[m.name] = metric{Value: v, Unit: m.unit}
	}
	return out
}

// failedLatency stands for a failed request in latency percentiles: a
// request that failed misses any latency limit.
const failedLatency = math.MaxInt64

// endToEnd computes every end-to-end metric but heap_mb, which run reads
// once the latencies are released.
func endToEnd(ph phase, setups []time.Duration) map[string]float64 {
	fg := append(append([]int64(nil), ph.reads.lat...), ph.observes.lat...)
	fgOK := ph.reads.ok() + ph.observes.ok()
	attempted := ph.reads.attempted + ph.observes.attempted + ph.paced.attempted
	failed := ph.reads.failed + ph.observes.failed + ph.paced.failed
	return map[string]float64{
		"setup_s": medianDuration(setups).Seconds(),
		"rps":     float64(fgOK) / ph.wall.Seconds(),
		"p50_us":  percentileUs(fg, 0.50),
		"p90_us":  percentileUs(fg, 0.90),
		"ok_frac": ratio(float64(attempted-failed), float64(attempted)),
	}
}

// byOp splits the client's view by operation.
func byOp(ph phase) map[string]float64 {
	writes := append(append([]int64(nil), ph.observes.lat...), ph.paced.lat...)
	wall := ph.wall.Seconds()
	return map[string]float64{
		"client.read_rps":       float64(ph.reads.ok()) / wall,
		"client.read_us_p50":    percentileUs(ph.reads.lat, 0.50),
		"client.read_us_p99":    percentileUs(ph.reads.lat, 0.99),
		"client.observe_rps":    float64(ph.observes.ok()+ph.paced.ok()) / wall,
		"client.observe_us_p50": percentileUs(writes, 0.50),
		"client.observe_us_p99": percentileUs(writes, 0.99),
	}
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	ph                  phase
	spans               []span
	links               []link
	from, to            int64 // the timed phase, in tracer time
	before, after       sample
	refreshes           [][2]sample // refresh windows inside the timed phase
	walBefore, walAfter metrics.Snapshot
	build, warm         time.Duration
	warmActions         int
}

func perLayer(li layerInputs) map[string]metric {
	v := byOp(li.ph)

	// Index the spans of the timed phase.
	byID := map[uint64]span{}
	childTime := map[uint64]int64{} // backend time under a client read, WAL time under a batch
	var reads, observes, recs, batches, appends, syncs []span
	for _, s := range li.spans {
		if s.Start < li.from || s.Start >= li.to {
			continue
		}
		byID[s.ID] = s
		switch s.Kind {
		case kindRead:
			reads = append(reads, s)
		case kindObserve:
			observes = append(observes, s)
		case kindRecommend:
			recs = append(recs, s)
			childTime[s.Parent] += s.dur()
		case kindBatch:
			batches = append(batches, s)
		case kindAppend, kindAppendBuffered:
			appends = append(appends, s)
			childTime[s.Parent] += s.dur()
		case kindSyncWait, kindBarrier:
			syncs = append(syncs, s)
			childTime[s.Parent] += s.dur()
		}
	}

	// server: the HTTP round trip minus the engine call it made.
	var readSelf []int64
	for _, s := range reads {
		if s.OK {
			readSelf = append(readSelf, s.dur()-childTime[s.ID])
		}
	}
	v["server.read.self_us_p50"] = percentileUs(readSelf, 0.50)
	v["server.read.self_us_p99"] = percentileUs(readSelf, 0.99)
	b, a := li.before.m, li.after.m
	recommends := delta(b, a, "server/http/recommends")
	v["server.cache.hit_ratio"] = ratio(delta(b, a, "server/cache/hits"), recommends)
	v["server.cache.bypass_frac"] = ratio(delta(b, a, "server/cache/bypass"), recommends)
	var applied, nBatches float64
	batchOf := map[uint64]uint64{}
	for _, l := range li.links {
		batchOf[l.client] = l.batch
	}
	for _, b := range batches {
		applied += float64(b.N)
		nBatches++
	}
	// Per-write ratios count only the time no refresh ran: a refresh's
	// replay fires the hook and the rec/* counters too, and is reported
	// per refresh below.
	writes := li.outside(func(s sample) float64 { return float64(s.m.Counter("engine/observe/actions")) })
	hooks := func(s sample) float64 { return float64(s.hooks) }
	v["server.cache.invalidated_users_per_observe"] = ratio(li.outside(hooks), writes)
	v["server.cache.full_flushes"] = float64(li.after.flushes - li.before.flushes)
	var observeSelf []int64
	for _, s := range observes {
		if b, ok := byID[batchOf[s.ID]]; ok && s.OK {
			observeSelf = append(observeSelf, s.dur()-b.dur())
		}
	}
	v["server.observe.self_us_p50"] = percentileUs(observeSelf, 0.50)
	v["server.batch.mean_size"] = ratio(applied, nBatches)

	// engine: the Backend calls themselves.
	var warm, cold []int64
	var empty, busy float64
	for _, s := range recs {
		if s.Cold {
			cold = append(cold, s.dur())
		} else {
			warm = append(warm, s.dur())
		}
		if s.Empty {
			empty++
		}
		busy += float64(s.dur())
	}
	v["engine.recommend.warm_us_p50"] = percentileUs(warm, 0.50)
	v["engine.recommend.warm_us_p99"] = percentileUs(warm, 0.99)
	v["engine.recommend.cold_us_p50"] = percentileUs(cold, 0.50)
	v["engine.recommend.cold_us_p99"] = percentileUs(cold, 0.99)
	v["engine.recommend.cold_frac"] = ratio(float64(len(cold)), float64(len(recs)))
	v["engine.recommend.empty_frac"] = ratio(empty, float64(len(recs)))
	var batchDur, batchSelf []int64
	for _, b := range batches {
		batchDur = append(batchDur, b.dur())
		batchSelf = append(batchSelf, b.dur()-childTime[b.ID])
		busy += float64(b.dur())
	}
	v["engine.busy_frac"] = busy / float64(li.to-li.from)
	v["engine.observe_batch.us_p50"] = percentileUs(batchDur, 0.50)
	v["engine.observe_batch.us_p99"] = percentileUs(batchDur, 0.99)
	v["engine.observe_batch.self_us_p50"] = percentileUs(batchSelf, 0.50)
	refreshes := delta(b, a, "engine/refresh/count")
	v["engine.refresh.count"] = refreshes
	v["engine.refresh.build_ms"] = histDelta(b, a, "engine/refresh/build_ns").Mean() / 1e6
	v["engine.refresh.write_stall_ms"] = histDelta(b, a, "engine/refresh/write_stall_ns").Mean() / 1e6
	v["engine.refresh.lock_hold_ms"] = histDelta(b, a, "engine/refresh/lock_hold_ns").Mean() / 1e6
	v["engine.refresh.replayed_actions"] = ratio(delta(b, a, "engine/refresh/replayed_actions"), refreshes)
	// A window also holds the writes that ran beside the refresh, a few
	// hundred against its replay of the whole live window.
	perRefresh := func(f func(sample) float64) float64 {
		var sum float64
		for _, w := range li.refreshes {
			sum += f(w[1]) - f(w[0])
		}
		return ratio(sum, float64(len(li.refreshes)))
	}
	v["engine.refresh.recomputations"] = perRefresh(func(s sample) float64 { return float64(s.m.Counter("rec/recomputations")) })
	v["engine.refresh.invalidated_users"] = perRefresh(hooks)

	// propagation: the engine's own counters over the timed phase.
	v["propagation.recomputations_per_observe"] = ratio(li.outside(func(s sample) float64 { return float64(s.m.Counter("rec/recomputations")) }), writes)
	v["propagation.rounds_per_observe"] = ratio(li.outside(func(s sample) float64 { return float64(s.m.Counter("rec/rounds")) }), writes)
	frontier := histDelta(b, a, "rec/frontier_width")
	for _, w := range li.refreshes {
		frontier = histMinus(frontier, histDelta(w[0].m, w[1].m, "rec/frontier_width"))
	}
	v["propagation.frontier_width_p99"] = float64(frontier.Quantile(0.99))
	v["propagation.live_states"] = float64(a.Gauge("rec/states"))

	// durable: the wrapped WAL calls plus the WAL's own fsync timer.
	var appendDur, syncDur []int64
	for _, s := range appends {
		appendDur = append(appendDur, s.dur())
	}
	for _, s := range syncs {
		syncDur = append(syncDur, s.dur())
	}
	v["wal.append_us_p50"] = percentileUs(appendDur, 0.50)
	v["wal.append_us_p99"] = percentileUs(appendDur, 0.99)
	v["wal.sync_wait_us_p99"] = percentileUs(syncDur, 0.99)
	v["wal.fsync_us_p99"] = float64(histDelta(li.walBefore, li.walAfter, "wal/fsync/latency_ns").Quantile(0.99)) / 1e3
	v["wal.records_per_fsync"] = ratio(delta(li.walBefore, li.walAfter, "wal/append/records"), delta(li.walBefore, li.walAfter, "wal/fsync/count"))

	v["setup.engine_build_s"] = li.build.Seconds()
	v["setup.warmup_s"] = li.warm.Seconds()
	v["setup.warmup_us_per_action"] = ratio(float64(li.warm.Microseconds()), float64(li.warmActions))
	v["gen.writer_lateness_us_p99"] = percentileUs(li.ph.lateness, 0.99)
	return withUnits(perLayerMetrics, v)
}

// percentileUs is the nearest-rank q-quantile of ns samples, in µs; 0
// without samples.
func percentileUs(ns []int64, q float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i]) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func delta(before, after metrics.Snapshot, name string) float64 {
	return float64(after.Counter(name) - before.Counter(name))
}

// outside is how much f grew over the timed phase while no refresh ran.
func (li layerInputs) outside(f func(sample) float64) float64 {
	d := f(li.after) - f(li.before)
	for _, w := range li.refreshes {
		d -= f(w[1]) - f(w[0])
	}
	return d
}

// histDelta is the part of a histogram observed between two snapshots.
func histDelta(before, after metrics.Snapshot, name string) metrics.HistogramSnapshot {
	return histMinus(after.Histogram(name), before.Histogram(name))
}

// histMinus removes b's observations from a, which must include them.
// Max stays a's, an upper bound.
func histMinus(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	d := metrics.HistogramSnapshot{Count: a.Count - b.Count, Sum: a.Sum - b.Sum, Max: a.Max}
	prev := map[int64]uint64{}
	for _, bk := range b.Buckets {
		prev[bk.Upper] = bk.Count
	}
	for _, bk := range a.Buckets {
		if n := bk.Count - prev[bk.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, metrics.Bucket{Upper: bk.Upper, Count: n})
		}
	}
	return d
}
