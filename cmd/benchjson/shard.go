package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/shard"
)

// shardReport is the BENCH_shard.json schema: per-shard-count ingest and
// serving throughput for the consistent-hash router, the measured
// cross-shard similarity loss, and the replay-protocol quality delta of
// the largest fleet against the single-engine oracle. The cpus and
// gomaxprocs fields are the honesty anchors — a 1-core box records the
// routing overhead, not a speedup, and the numbers say so.
type shardReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Users       int    `json:"users"`
	Seed        uint64 `json:"seed"`
	Runs        int    `json:"runs"`
	Writers     int    `json:"writers"`
	Readers     int    `json:"readers"`

	ObserveActions   int `json:"observe_actions"`
	RecommendQueries int `json:"recommend_queries"`

	Entries []shardEntry `json:"entries"`

	Quality shardQuality `json:"quality"`
}

// shardEntry is one fleet size's measurements (best of runs).
type shardEntry struct {
	Shards int `json:"shards"`

	// Sync ingest: `writers` goroutines stream disjoint slices of the
	// test split through Router.Observe.
	ObserveMs         float64 `json:"observe_ms"`
	ObservePerSec     float64 `json:"observe_actions_per_sec"`
	ObserveSpeedupVs1 float64 `json:"observe_speedup_vs_1"`

	// Batch ingest: one producer hands the same stream to
	// Router.ObserveBatch in fixed chunks of batchChunk actions; each
	// chunk's per-shard sub-batches run concurrently. The speedup is
	// against this entry's own sync observe wall.
	BatchDrainMs       float64 `json:"batch_drain_ms"`
	BatchSpeedupVsSync float64 `json:"batch_speedup_vs_sync"`

	// Serving: `readers` goroutines round-robin Recommend over all users.
	RecommendMs         float64 `json:"recommend_ms"`
	RecommendQPS        float64 `json:"recommend_qps"`
	RecommendSpeedupVs1 float64 `json:"recommend_speedup_vs_1"`

	// ShardLoadMaxMean is the observed ingest imbalance (1.0 = perfect).
	ShardLoadMaxMean float64 `json:"shard_load_max_mean"`
	// CrossShardObserves counts observes whose tweet already had sharers
	// on another shard — similarity mass partitioning destroyed;
	// CrossShardLossFrac is that count over all observes.
	CrossShardObserves uint64  `json:"cross_shard_observes"`
	CrossShardLossFrac float64 `json:"cross_shard_loss_frac"`
}

// batchChunk is the single producer's chunk size for the batch-ingest
// phase. It equals the per-shard mailbox depth the earlier async-drain
// numbers were measured with, so the two drains compare.
const batchChunk = 1024

// shardQuality is the replay-protocol delta of the largest fleet vs the
// single-engine oracle on a smaller eval dataset (the replay is
// per-user-day, far heavier than throughput streaming).
type shardQuality struct {
	EvalUsers      int     `json:"eval_users"`
	Shards         int     `json:"shards"`
	Ks             []int   `json:"ks"`
	OracleHits     []int   `json:"oracle_hits"`
	ShardHits      []int   `json:"shard_hits"`
	MinHitRatio    float64 `json:"min_hit_ratio"`
	MinCommonRatio float64 `json:"min_common_ratio"`
}

// shardBench measures every requested fleet size and writes out.
func shardBench(users int, counts []int, writers, readers, runs int, seed uint64, evalUsers int, out string) {
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		log.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	// The throughput replay serves at end-of-stream; open the freshness
	// horizon so served sets don't decay to nothing mid-measurement.
	eopts.MaxAge = 1 << 40
	now := test[len(test)-1].Time + 1

	var r shardReport
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.CPUs = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.Users = users
	r.Seed = seed
	r.Runs = runs
	r.Writers = writers
	r.Readers = readers
	r.ObserveActions = len(test)
	r.RecommendQueries = readers * ds.NumUsers()

	for _, k := range counts {
		r.Entries = append(r.Entries, measureFleet(ds, eopts, k, writers, readers, runs, test, now))
	}
	// Speedups are relative to the 1-shard entry when present.
	var base *shardEntry
	for i := range r.Entries {
		if r.Entries[i].Shards == 1 {
			base = &r.Entries[i]
		}
	}
	if base != nil {
		for i := range r.Entries {
			r.Entries[i].ObserveSpeedupVs1 = base.ObserveMs / r.Entries[i].ObserveMs
			r.Entries[i].RecommendSpeedupVs1 = base.RecommendMs / r.Entries[i].RecommendMs
		}
	}

	maxShards := counts[0]
	for _, k := range counts {
		if k > maxShards {
			maxShards = k
		}
	}
	r.Quality = measureShardQuality(evalUsers, seed, maxShards)

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	for _, e := range r.Entries {
		fmt.Printf("shards=%d: observe %.1fms (%.0f/s, %.2fx vs 1), batch drain %.1fms (%.2fx), recommend %.1fms (%.0f qps, %.2fx), load max/mean %.2f, cross-shard loss %.1f%%\n",
			e.Shards, e.ObserveMs, e.ObservePerSec, e.ObserveSpeedupVs1,
			e.BatchDrainMs, e.BatchSpeedupVsSync,
			e.RecommendMs, e.RecommendQPS, e.RecommendSpeedupVs1,
			e.ShardLoadMaxMean, 100*e.CrossShardLossFrac)
	}
	fmt.Printf("quality (%d users, %d shards vs oracle): worst-k hit ratio %.3f, common ratio %.3f\n",
		r.Quality.EvalUsers, r.Quality.Shards, r.Quality.MinHitRatio, r.Quality.MinCommonRatio)
	fmt.Printf("wrote %s\n", out)
}

// measureFleet times one fleet size, best of runs. Every run gets fresh
// fleets: observing mutates candidate pools, so reuse would hand later
// runs a different workload.
func measureFleet(ds *repro.Dataset, eopts repro.EngineOptions, shards, writers, readers, runs int, test []repro.Action, now repro.Timestamp) shardEntry {
	e := shardEntry{Shards: shards}
	for run := 0; run < runs; run++ {
		// Sync ingest + serving on one fleet.
		r, err := shard.New(ds, eopts, shard.Options{Shards: shards})
		if err != nil {
			log.Fatal(err)
		}
		obs := timeConcurrent(writers, len(test), func(w, lo, hi int) {
			for _, a := range test[lo:hi] {
				if err := r.Observe(a.User, a.Tweet, a.Time); err != nil {
					log.Fatal(err)
				}
			}
		})
		r.RefreshGraph(repro.UpdateFromScratch)
		rec := timeConcurrent(readers, readers*ds.NumUsers(), func(w, lo, hi int) {
			for q := lo; q < hi; q++ {
				r.Recommend(repro.UserID(q%ds.NumUsers()), 10, now)
			}
		})
		if run == 0 || obs < time.Duration(e.ObserveMs*1e6) {
			e.ObserveMs = ms(obs)
			loads := r.ShardLoads()
			var sum, max uint64
			for _, l := range loads {
				sum += l
				if l > max {
					max = l
				}
			}
			if sum > 0 {
				e.ShardLoadMaxMean = float64(max) * float64(len(loads)) / float64(sum)
			}
			e.CrossShardObserves = r.CrossShardObserves()
			e.CrossShardLossFrac = float64(e.CrossShardObserves) / float64(len(test))
		}
		if run == 0 || rec < time.Duration(e.RecommendMs*1e6) {
			e.RecommendMs = ms(rec)
		}

		// Batch ingest on a second fresh fleet: one producer, fixed
		// chunks through Router.ObserveBatch.
		rb, err := shard.New(ds, eopts, shard.Options{Shards: shards})
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		for lo := 0; lo < len(test); lo += batchChunk {
			for _, err := range rb.ObserveBatch(test[lo:min(lo+batchChunk, len(test))]) {
				if err != nil {
					log.Fatal(err)
				}
			}
		}
		if d := time.Since(start); run == 0 || d < time.Duration(e.BatchDrainMs*1e6) {
			e.BatchDrainMs = ms(d)
		}
		if err := rb.Close(); err != nil {
			log.Fatal(err)
		}
	}
	e.ObservePerSec = float64(len(test)) / (e.ObserveMs / 1e3)
	e.RecommendQPS = float64(readers*ds.NumUsers()) / (e.RecommendMs / 1e3)
	if e.BatchDrainMs > 0 {
		e.BatchSpeedupVsSync = e.ObserveMs / e.BatchDrainMs
	}
	return e
}

// timeConcurrent splits n work items into `workers` contiguous chunks
// and times the whole fan-out.
func timeConcurrent(workers, n int, f func(w, lo, hi int)) time.Duration {
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			f(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	return time.Since(start)
}

// measureShardQuality runs the §6 replay protocol on a smaller dataset:
// single-engine oracle vs the largest fleet, reported via
// eval.QualityDelta.
func measureShardQuality(users int, seed uint64, shards int) shardQuality {
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		log.Fatal(err)
	}
	opts := eval.Options{
		TrainFrac:      0.9,
		KMin:           10,
		KMax:           40,
		KStep:          10,
		SamplePerClass: 40,
		Seed:           seed,
	}
	rp, err := eval.NewReplay(ds, opts)
	if err != nil {
		log.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	oracle := shard.NewEvalOracle(eopts)
	cand := shard.NewEvalRecommender(eopts, shard.Options{Shards: shards})
	oRun, err := rp.Run(oracle)
	if err != nil {
		log.Fatal(err)
	}
	cRun, err := rp.Run(cand)
	if err != nil {
		log.Fatal(err)
	}
	d := eval.QualityDelta(rp.Compute(oRun), rp.Compute(cRun))
	return shardQuality{
		EvalUsers:      users,
		Shards:         shards,
		Ks:             d.Ks,
		OracleHits:     d.OracleHits,
		ShardHits:      d.CandidateHits,
		MinHitRatio:    d.MinHitRatio,
		MinCommonRatio: d.MinCommonRatio,
	}
}
