package simgraph

import (
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
)

// Tests for the parallel postponed-batch drain: the worker pool must not
// change what gets recommended, must actually count its work, and must be
// race-free under concurrent serving traffic (run with -race in CI).

func drainConfig(workers int) RecommenderConfig {
	cfg := DefaultRecommenderConfig()
	cfg.Postpone = true
	cfg.DrainWorkers = workers
	return cfg
}

// TestParallelDrainMatchesSerial: per-tweet propagation is deterministic
// and pool bumps are monotone max per (user, tweet), so draining with 8
// workers must land on exactly the scores a serial drain produces.
func TestParallelDrainMatchesSerial(t *testing.T) {
	const numTweets, perTweet = 1200, 10
	serial, ds := soakReplay(t, drainConfig(1), numTweets, perTweet)
	parallel, _ := soakReplay(t, drainConfig(8), numTweets, perTweet)
	now := ds.Actions[len(ds.Actions)-1].Time

	checked := 0
	for u := ids.UserID(0); u < 16; u++ {
		a := serial.Recommend(u, 50, now)
		b := parallel.Recommend(u, 50, now)
		if len(a) != len(b) {
			t.Fatalf("user %d: serial returned %d recs, parallel %d", u, len(a), len(b))
		}
		// Compare as score maps: candidates with equal scores may tie-break
		// into different ranks.
		want := make(map[ids.TweetID]float64, len(a))
		for _, r := range a {
			want[r.Tweet] = r.Score
		}
		for _, r := range b {
			if w, ok := want[r.Tweet]; !ok || w != r.Score {
				t.Fatalf("user %d tweet %d: parallel score %v, serial %v (present=%v)", u, r.Tweet, r.Score, w, ok)
			}
		}
		checked += len(a)
	}
	if checked == 0 {
		t.Fatal("drain comparison checked no recommendations")
	}
}

// TestDrainStatsCount: the rec/* counters must reflect the drains that
// actually ran.
func TestDrainStatsCount(t *testing.T) {
	cfg := drainConfig(4)
	cfg.Metrics = metrics.NewRegistry()
	r, ds := soakReplay(t, cfg, 800, 10)
	now := ds.Actions[len(ds.Actions)-1].Time
	r.Recommend(0, 10, now+300*ids.Hour) // flush whatever frames remain in horizon
	st := cfg.Metrics.Snapshot()
	props, batches, drains := st.Counters["rec/propagations"], st.Counters["rec/drain/batches"], st.Counters["rec/drains"]
	if props == 0 || batches == 0 || drains == 0 {
		t.Fatalf("postponed replay recorded no work: %+v", st.Counters)
	}
	if batches < drains {
		t.Errorf("drained %d batches over %d drains", batches, drains)
	}
	if props != batches {
		t.Errorf("postponed mode: propagations %d != drained batches %d", props, batches)
	}
	if st.Counters["rec/recomputations"] == 0 || st.Counters["rec/rounds"] == 0 {
		t.Errorf("no recomputations/rounds counted: %+v", st.Counters)
	}
	if st.Histograms["rec/drain/wall_ns"].Sum <= 0 {
		t.Error("drain wall time not measured")
	}

	// Immediate mode counts propagations but never drains.
	cfgi := DefaultRecommenderConfig()
	cfgi.Metrics = metrics.NewRegistry()
	soakReplay(t, cfgi, 300, 10)
	sti := cfgi.Metrics.Snapshot()
	if sti.Counters["rec/propagations"] == 0 {
		t.Fatal("immediate mode counted no propagations")
	}
	if sti.Counters["rec/drains"] != 0 || sti.Counters["rec/drain/batches"] != 0 {
		t.Errorf("immediate mode recorded drains: %+v", sti.Counters)
	}
}

// TestConcurrentServingWhileFramesExpire is the drain race test: writers
// stream retweets (expiring frames as the clock advances) while readers
// recommend — every drain they trigger fans propagation out across the
// worker pool. Run under -race.
func TestConcurrentServingWhileFramesExpire(t *testing.T) {
	ds, ctx := soakWorld(t, 1500, 10)
	cfg := drainConfig(8)
	cfg.PostponeMin = 2 * ids.Minute // expire frames constantly
	cfg.PostponeMax = 30 * ids.Minute
	cfg.Metrics = metrics.NewRegistry()
	r := NewRecommender(cfg)
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	test := ds.Actions[len(ctx.Train):]

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: the retweet stream
		defer wg.Done()
		for _, a := range test {
			r.Observe(a)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // readers: serving traffic that also drains
			defer wg.Done()
			for i := 0; i < len(test); i += 16 {
				u := ctx.Tracked[(i+w)%len(ctx.Tracked)]
				r.Recommend(u, 10, test[i].Time)
			}
		}(w)
	}
	wg.Wait()

	now := test[len(test)-1].Time
	for _, u := range ctx.Tracked[:4] {
		for _, rec := range r.Recommend(u, 10, now) {
			if now-ds.Tweets[rec.Tweet].Time > ctx.MaxAge {
				t.Fatal("stale recommendation after concurrent replay")
			}
		}
	}
	if n := cfg.Metrics.Counter("rec/propagations").Value(); n == 0 {
		t.Fatal("concurrent replay propagated nothing")
	}
}

// TestObserveImmediateStillWorksWithPool: the immediate path now checks a
// propagator out of the sync.Pool per observation; scores must be
// unaffected (guards the pooled-scratch plumbing).
func TestObserveImmediateStillWorksWithPool(t *testing.T) {
	ds, ctx := soakWorld(t, 300, 10)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}
	var last dataset.Action
	for _, a := range ds.Actions[len(ctx.Train):] {
		r.Observe(a)
		last = a
	}
	produced := 0
	for _, u := range ctx.Tracked {
		produced += len(r.Recommend(u, 10, last.Time))
	}
	if produced == 0 {
		t.Fatal("immediate mode produced no recommendations")
	}
}

func benchDrain(b *testing.B, workers int) {
	const numTweets, perTweet = 2500, 12
	ds, ctx := soakWorld(b, numTweets, perTweet)
	test := ds.Actions[len(ctx.Train):]
	cfg := drainConfig(workers)
	cfg.PostponeMin = 2 * ids.Minute
	cfg.PostponeMax = 30 * ids.Minute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRecommender(cfg)
		if err := r.Init(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, a := range test {
			r.Observe(a)
		}
	}
}

func BenchmarkPostponedReplayDrain1(b *testing.B) { benchDrain(b, 1) }
func BenchmarkPostponedReplayDrain4(b *testing.B) { benchDrain(b, 4) }
func BenchmarkPostponedReplayDrain8(b *testing.B) { benchDrain(b, 8) }
