package repro

import (
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/ids"
)

// concurrentEngine builds an engine over the shared test dataset with the
// training split installed, ready to stream the test actions.
func concurrentEngine(t *testing.T, postpone bool) (*Engine, []Action, Timestamp) {
	t.Helper()
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.Postpone = postpone
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, test, test[len(test)-1].Time
}

// runReadersAgainstWriter races readers goroutines over the whole read
// surface while one writer streams every test action. Run it under
// `go test -race` to validate the concurrency contract.
func runReadersAgainstWriter(t *testing.T, eng *Engine, test []Action, now Timestamp, readers int) {
	t.Helper()
	users := eng.Dataset().NumUsers()
	assignment, _ := eng.DetectBubbles()

	var wg sync.WaitGroup
	done := make(chan struct{})
	var reads atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, a := range test {
			if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			u := UserID(id * 31 % users)
			for iter := 0; ; iter++ {
				select {
				case <-done:
					return
				default:
				}
				switch iter % 5 {
				case 0, 1, 2:
					eng.Recommend(u, 10, now)
				case 3:
					eng.Similarity(u, UserID((int(u)+7)%users))
				case 4:
					eng.RecommendDiverse(assignment, u, 10, now, 0.5)
				}
				reads.Add(1)
				u = UserID((int(u) + 13) % users)
			}
		}(i)
	}

	// Two extra goroutines hammer the pooled-propagator path.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(seed UserID) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				eng.PropagateScores([]UserID{seed, seed + 1})
				reads.Add(1)
			}
		}(UserID(i * 17 % users))
	}

	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("no reads completed while the writer streamed")
	}
}

// TestEngineConcurrentReadersOneWriter is the acceptance smoke test: at
// least 8 goroutines calling Recommend (and the rest of the read surface)
// concurrently with a writer streaming Observe, raced under -race.
func TestEngineConcurrentReadersOneWriter(t *testing.T) {
	eng, test, now := concurrentEngine(t, false)
	runReadersAgainstWriter(t, eng, test, now, 8)
}

// The postponed path is the one where Recommend itself drains batches and
// mutates propagation state — race it separately.
func TestEngineConcurrentReadersPostponed(t *testing.T) {
	eng, test, now := concurrentEngine(t, true)
	runReadersAgainstWriter(t, eng, test, now, 8)
}

// RefreshGraph must serialize against readers: interleave refreshes with
// recommends while a writer streams.
func TestEngineConcurrentRefreshGraph(t *testing.T) {
	eng, test, now := concurrentEngine(t, false)
	half := len(test) / 4
	for _, a := range test[:half] {
		if err := eng.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, s := range []UpdateStrategy{UpdateWeights, UpdateCrossfold} {
			eng.RefreshGraph(s)
		}
	}()
	users := eng.Dataset().NumUsers()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			u := UserID(id)
			for {
				select {
				case <-done:
					return
				default:
				}
				eng.Recommend(u, 10, now)
				u = UserID((int(u) + 3) % users)
			}
		}(i)
	}
	wg.Wait()
}

// TestEngineConcurrentBackgroundIncrementalRefresh races the background
// incremental refresher (EngineOptions.RefreshEvery) against the full
// read surface and a streaming writer, then stops it with Close. Run
// under -race: the refresher drains the dirty set under the read lock,
// replays a log snapshot with no lock, and swaps exclusively — every
// phase must coexist with Observe and Recommend traffic.
func TestEngineConcurrentBackgroundIncrementalRefresh(t *testing.T) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.RefreshEvery = 2 * time.Millisecond
	opts.RefreshStrategy = UpdateIncremental
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	now := test[len(test)-1].Time
	runReadersAgainstWriter(t, eng, test, now, 4)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// The refresher is down; a manual incremental refresh still works and
	// covers whatever the last tick had not drained yet.
	st := eng.RefreshGraphStats(UpdateIncremental)
	if st.Strategy != UpdateIncremental {
		t.Errorf("Strategy = %v, want %v", st.Strategy, UpdateIncremental)
	}
}

// coldStartWorld hand-builds the smallest dataset where the cold-start
// fallback used to recommend a user their own tweet: user 0 is cold (no
// train actions), follows user 3, and authors tweet tB; users 1-4 are
// mutually similar so propagation fills user 3's pool.
func coldStartWorld(t *testing.T) *Dataset {
	t.Helper()
	const users = 6
	gb := graph.NewBuilder(users, 32)
	// Clique among 1..4 so everyone sits within 2 hops.
	for u := 1; u <= 4; u++ {
		for v := 1; v <= 4; v++ {
			if u != v {
				gb.AddEdge(ids.UserID(u), ids.UserID(v))
			}
		}
	}
	gb.AddEdge(0, 3) // the cold user's only followee

	tweets := []Tweet{
		{Author: 5, Time: 0},        // t0: shared history
		{Author: 5, Time: 0},        // t1: shared history
		{Author: 2, Time: 1 * Hour}, // tA: control, recommendable
		{Author: 0, Time: 1 * Hour}, // tB: authored by the cold user
		{Author: 5, Time: 1 * Hour}, // tC: later shared by the cold user
	}
	var actions []Action
	// Train: users 1..4 share t0 and t1 — identical profiles, so every
	// pair clears any reasonable tau. Appended in time order for Validate.
	for _, tw := range []TweetID{0, 1} {
		for u := 1; u <= 4; u++ {
			actions = append(actions, Action{User: UserID(u), Tweet: tw, Time: (10 + 10*Timestamp(tw)) * Minute})
		}
	}
	ds := &Dataset{Graph: gb.Build(), Tweets: tweets, Actions: actions}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	return ds
}

// A cold-start user must never be served a tweet they authored or already
// shared; the followee pools only filter the followees' own history.
func TestColdStartFilterOwnAndShared(t *testing.T) {
	ds := coldStartWorld(t)
	opts := DefaultEngineOptions()
	opts.Train = ds.Actions
	opts.Tau = 0.001
	eng, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if g := eng.rec.Graph(); g.OutDegree(0) != 0 || g.InDegree(0) != 0 {
		t.Fatal("test setup: user 0 is not cold")
	}

	now := 2 * Hour
	// User 1 retweets tA (control), tB (authored by cold user 0), and tC.
	for _, tw := range []TweetID{2, 3, 4} {
		if err := eng.Observe(1, tw, now); err != nil {
			t.Fatal(err)
		}
	}
	recs := eng.Recommend(0, 10, now)
	if len(recs) == 0 {
		t.Fatal("cold-start fallback served nothing — control tweet missing")
	}
	has := func(tw TweetID) bool {
		for _, r := range recs {
			if r.Tweet == tw {
				return true
			}
		}
		return false
	}
	if !has(2) {
		t.Error("control tweet tA not recommended to cold user")
	}
	if has(3) {
		t.Error("cold user recommended their own tweet tB")
	}

	// The cold user now shares tC; it must drop out of their fallback feed.
	if !has(4) {
		t.Fatal("test setup: tC not in the fallback feed before sharing")
	}
	if err := eng.Observe(0, 4, now+Minute); err != nil {
		t.Fatal(err)
	}
	for _, r := range eng.Recommend(0, 10, now+Minute) {
		if r.Tweet == 4 {
			t.Error("cold user recommended a tweet they already shared")
		}
	}
}

// TestConcurrentWritersMatchSerialReplay pins the write path's ordering
// promise: each action is sequenced under the engine lock and propagates
// after it is released, under its tweet's state lock taken in log order.
// So however concurrent writers interleave, once they quiesce the engine
// must serve exactly what a fresh engine serves after a serial replay of
// its observed log. The feed is grouped by tweet, so consecutive chunks —
// handed to different writers — write the same tweets at once; MaxAge is
// short, so states are evicted mid-stream, and a writer lagging behind
// the others re-creates states the others evicted.
func TestConcurrentWritersMatchSerialReplay(t *testing.T) {
	for _, postpone := range []bool{false, true} {
		name := "immediate"
		if postpone {
			name = "postponed"
		}
		t.Run(name, func(t *testing.T) { testWritersMatchSerialReplay(t, postpone) })
	}
}

func testWritersMatchSerialReplay(t *testing.T, postpone bool) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.Postpone = postpone
	opts.MaxAge = 12 * Hour
	newEngine := func() *Engine {
		e, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	feed := append([]Action(nil), test...)
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].Tweet < feed[j].Tweet })
	feed = feed[:2400]
	const writers, chunk = 4, 8

	eng := newEngine()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			batch := 1 // writers 0 and 1 send single actions, 2 and 3 whole chunks
			if w >= 2 {
				batch = chunk
			}
			for c := w * chunk; c < len(feed); c += writers * chunk {
				part := feed[c:min(c+chunk, len(feed))]
				for i := 0; i < len(part); i += batch {
					for _, err := range eng.ObserveBatch(part[i:min(i+batch, len(part))]) {
						if err != nil {
							t.Error(err)
						}
					}
				}
				runtime.Gosched()
			}
		}(w)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	log := eng.ObservedActions()
	if len(log) != len(feed) {
		t.Fatalf("observed log holds %d of %d actions", len(log), len(feed))
	}
	outOfOrder := false
	for i := 1; i < len(log); i++ {
		outOfOrder = outOfOrder || log[i].Time < log[i-1].Time
	}
	if !outOfOrder {
		t.Fatal("test setup: the log is in timestamp order")
	}
	serial := newEngine()
	for _, a := range log {
		if err := serial.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}

	now := feed[0].Time
	for _, a := range feed {
		now = max(now, a.Time)
	}
	served := 0
	for u := 0; u < ds.NumUsers(); u++ {
		got := eng.Recommend(UserID(u), 10, now)
		want := serial.Recommend(UserID(u), 10, now)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("user %d: concurrent writers served %v, serial replay %v", u, got, want)
		}
		served += len(got)
	}
	if served == 0 {
		t.Fatal("test setup: no user was served anything")
	}
	gotM, wantM := eng.Metrics().Counters, serial.Metrics().Counters
	if gotM["rec/evictions"] == 0 {
		t.Fatal("test setup: no propagation state was evicted")
	}
	for _, name := range []string{"rec/propagations", "rec/recomputations", "rec/evictions"} {
		if gotM[name] != wantM[name] {
			t.Errorf("%s = %d after concurrent writers, %d after serial replay", name, gotM[name], wantM[name])
		}
	}
}
