package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/propagation"
	"repro/internal/recsys"
	"repro/internal/simgraph"
	"repro/internal/wgraph"
	"repro/internal/xrand"
)

// propReport is the BENCH_propagation.json schema: the epoch-stamped
// AddSeeds kernel versus the frozen RefIncremental on a streaming replay,
// plus the serial-versus-parallel postponed-batch drain.
type propReport struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	CPUs        int    `json:"cpus"`
	GoMaxProcs  int    `json:"gomaxprocs"`
	Nodes       int    `json:"nodes"`
	Degree      int    `json:"degree"`
	Seed        uint64 `json:"seed"`
	Runs        int    `json:"runs"`

	Kernel struct {
		Tweets       int     `json:"tweets"`
		Actions      int     `json:"replay_actions"`
		RefMs        float64 `json:"ref_replay_ms"`
		KernelMs     float64 `json:"kernel_replay_ms"`
		Speedup      float64 `json:"speedup"`
		BitIdentical bool    `json:"bit_identical"`
	} `json:"kernel"`

	Drain struct {
		Users           int     `json:"users"`
		Actions         int     `json:"replay_actions"`
		ParallelWorkers int     `json:"parallel_workers"`
		SerialDrainMs   float64 `json:"serial_drain_ms"`
		ParallelDrainMs float64 `json:"parallel_drain_ms"`
		Speedup         float64 `json:"speedup"`
		Drains          uint64  `json:"drains"`
		DrainedBatches  uint64  `json:"drained_batches"`
	} `json:"drain"`
}

// propGraph builds the synthetic similarity graph the kernel replay runs
// on — the same shape internal/propagation's benchmarks use.
func propGraph(n, deg int, seed uint64) *wgraph.Graph {
	rng := xrand.New(seed)
	b := wgraph.NewBuilder(n, n*deg)
	b.SetNumNodes(n)
	for i := 0; i < n*deg; i++ {
		b.AddEdge(ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)), float32(rng.Float64()*0.9+0.05))
	}
	return b.Build()
}

// share is one streamed retweet of the synthetic replay.
type share struct {
	tweet int
	user  ids.UserID
}

// propStream interleaves perTweet shares across tweets round-robin, the
// way a live stream spreads retweets over concurrently-hot tweets.
func propStream(n, tweets, perTweet int, seed uint64) []share {
	rng := xrand.New(seed ^ 0x5ca1ab1e)
	out := make([]share, 0, tweets*perTweet)
	for j := 0; j < perTweet; j++ {
		for t := 0; t < tweets; t++ {
			out = append(out, share{tweet: t, user: ids.UserID(rng.Intn(n))})
		}
	}
	return out
}

// replayProp feeds the stream through one propagator, growing per-tweet
// states share by share exactly as the serving path does. S is the
// kernel's or the reference's state type.
func replayProp[S comparable](stream []share, tweets int, newState func() S, add func(st S, seeds []ids.UserID, popularity int)) ([]S, time.Duration) {
	states := make([]S, tweets)
	counts := make([]int, tweets)
	var none S
	start := time.Now()
	for _, s := range stream {
		st := states[s.tweet]
		if st == none {
			st = newState()
			states[s.tweet] = st
		}
		counts[s.tweet]++
		add(st, []ids.UserID{s.user}, counts[s.tweet])
	}
	return states, time.Since(start)
}

// statesIdentical compares the kernel's per-tweet states with the
// reference's exactly, through TweetState's read accessors: the kernel
// must reproduce the reference fixpoints bit for bit.
func statesIdentical(a []*propagation.TweetState, b []*propagation.RefTweetState) bool {
	for i := range a {
		x, y := a[i], b[i]
		if (x == nil) != (y == nil) {
			return false
		}
		if x == nil {
			continue
		}
		p := x.Scores()
		if len(p) != len(y.P) || len(x.Seeds()) != len(y.Seeds) {
			return false
		}
		for u, v := range p {
			if w, ok := y.P[u]; !ok || w != v {
				return false
			}
		}
		for _, u := range x.Seeds() {
			if _, ok := y.Seeds[u]; !ok {
				return false
			}
		}
	}
	return true
}

// drainStats is the slice of the recommender's rec/* drain counters the
// report records.
type drainStats struct {
	Drains, DrainedBatches uint64
	DrainTime              time.Duration
}

// drainReplay streams the tail of the generated dataset through a
// postponed recommender and returns its drain counters plus replay wall
// time. workers <= 0 uses the parallel default.
func drainReplay(ds *dataset.Dataset, ctx *recsys.Context, g *wgraph.Graph, actions []dataset.Action, workers int) (drainStats, time.Duration) {
	cfg := simgraph.DefaultRecommenderConfig()
	cfg.Postpone = true
	cfg.PostponeMin = 2 * ids.Minute
	cfg.PostponeMax = 30 * ids.Minute
	cfg.DrainWorkers = workers
	cfg.Metrics = metrics.NewRegistry()
	r := simgraph.NewRecommender(cfg)
	r.InitWithGraph(ctx, g)
	start := time.Now()
	for _, a := range actions {
		r.Observe(a)
	}
	// Flush the frames still pending at end of stream.
	r.Recommend(ctx.Tracked[0], 1, actions[len(actions)-1].Time+cfg.PostponeMax)
	wall := time.Since(start)
	st := cfg.Metrics.Snapshot()
	return drainStats{
		Drains:         st.Counters["rec/drains"],
		DrainedBatches: st.Counters["rec/drain/batches"],
		DrainTime:      time.Duration(st.Histograms["rec/drain/wall_ns"].Sum),
	}, wall
}

// propagationBench runs both comparisons and writes BENCH_propagation.json.
func propagationBench(nodes, deg, tweets, perTweet, runs int, seed uint64,
	ds *dataset.Dataset, ctx *recsys.Context, simG *wgraph.Graph, observe int, out string) {
	var r propReport
	r.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	r.GoVersion = runtime.Version()
	r.CPUs = runtime.NumCPU()
	r.GoMaxProcs = runtime.GOMAXPROCS(0)
	r.Nodes = nodes
	r.Degree = deg
	r.Seed = seed
	r.Runs = runs

	g := propGraph(nodes, deg, seed)
	stream := propStream(nodes, tweets, perTweet, seed)
	cfg := propagation.DefaultConfig()

	var kernelStates []*propagation.TweetState
	var refStates []*propagation.RefTweetState
	var kernelBest, refBest time.Duration
	for i := 0; i < runs; i++ {
		inc := propagation.NewIncremental(g, cfg)
		states, d := replayProp(stream, tweets, propagation.NewTweetState, inc.AddSeeds)
		if i == 0 || d < kernelBest {
			kernelBest = d
		}
		kernelStates = states

		ref := propagation.NewRefIncremental(g, cfg)
		rstates, d := replayProp(stream, tweets, propagation.NewRefTweetState, ref.AddSeeds)
		if i == 0 || d < refBest {
			refBest = d
		}
		refStates = rstates
	}
	r.Kernel.Tweets = tweets
	r.Kernel.Actions = len(stream)
	r.Kernel.KernelMs = ms(kernelBest)
	r.Kernel.RefMs = ms(refBest)
	r.Kernel.Speedup = refBest.Seconds() / kernelBest.Seconds()
	r.Kernel.BitIdentical = statesIdentical(kernelStates, refStates)
	if !r.Kernel.BitIdentical {
		log.Fatal("epoch-stamped kernel diverged from the reference fixpoints")
	}

	n := observe
	if n > len(ds.Actions) {
		n = len(ds.Actions)
	}
	tail := ds.Actions[len(ds.Actions)-n:]
	// Force at least two workers so the pool dispatch path is measured
	// even on a single-core box (where it can only cost, not gain).
	parWorkers := runtime.GOMAXPROCS(0)
	if parWorkers > 8 {
		parWorkers = 8
	}
	if parWorkers < 2 {
		parWorkers = 2
	}
	var serialStats, parStats drainStats
	var serialWall, parWall time.Duration
	for i := 0; i < runs; i++ {
		st, d := drainReplay(ds, ctx, simG, tail, 1)
		if i == 0 || d < serialWall {
			serialWall, serialStats = d, st
		}
		st, d = drainReplay(ds, ctx, simG, tail, parWorkers)
		if i == 0 || d < parWall {
			parWall, parStats = d, st
		}
	}
	r.Drain.Users = ds.NumUsers()
	r.Drain.Actions = n
	r.Drain.ParallelWorkers = parWorkers
	r.Drain.SerialDrainMs = ms(serialStats.DrainTime)
	r.Drain.ParallelDrainMs = ms(parStats.DrainTime)
	if parStats.DrainTime > 0 {
		r.Drain.Speedup = serialStats.DrainTime.Seconds() / parStats.DrainTime.Seconds()
	}
	r.Drain.Drains = parStats.Drains
	r.Drain.DrainedBatches = parStats.DrainedBatches

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("propagation: %d actions, kernel %.1fms vs reference %.1fms (%.1fx), fixpoints bit-identical\n",
		r.Kernel.Actions, r.Kernel.KernelMs, r.Kernel.RefMs, r.Kernel.Speedup)
	fmt.Printf("drain: serial %.1fms vs %d workers %.1fms (%.1fx) over %d drains / %d batches\n",
		r.Drain.SerialDrainMs, r.Drain.ParallelWorkers, r.Drain.ParallelDrainMs, r.Drain.Speedup,
		r.Drain.Drains, r.Drain.DrainedBatches)
	if r.Kernel.Speedup < 3 {
		log.Printf("warning: kernel speedup %.2fx below the 3x target", r.Kernel.Speedup)
	}
	fmt.Printf("wrote %s\n", out)
}
