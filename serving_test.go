package repro

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/durable"
)

func servingEngines(t *testing.T, n int) (*Dataset, []Action, []*Engine) {
	t.Helper()
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.Postpone = false // drains inside Recommend would depend on read order
	engines := make([]*Engine, n)
	for i := range engines {
		e, err := NewEngine(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	return ds, test, engines
}

// TestObserveBatchMatchesSequentialObserve pins the batch write path to
// the exact semantics of the per-action path: same applied log, same
// recommendations for every user, bit for bit.
func TestObserveBatchMatchesSequentialObserve(t *testing.T) {
	ds, test, engines := servingEngines(t, 2)
	seq, bat := engines[0], engines[1]
	for _, a := range test {
		if err := seq.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	errs := bat.ObserveBatch(test)
	if len(errs) != len(test) {
		t.Fatalf("ObserveBatch returned %d slots for %d actions", len(errs), len(test))
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("batch slot %d: %v", i, err)
		}
	}
	a, b := seq.ObservedActions(), bat.ObservedActions()
	if len(a) != len(b) {
		t.Fatalf("observed logs diverge: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observed[%d]: sequential %+v, batch %+v", i, a[i], b[i])
		}
	}
	now := test[len(test)-1].Time + 1
	const k = 10
	for u := 0; u < ds.NumUsers(); u++ {
		sr := seq.Recommend(UserID(u), k, now)
		br := bat.Recommend(UserID(u), k, now)
		if len(sr) != len(br) {
			t.Fatalf("user %d: sequential served %d, batch %d", u, len(sr), len(br))
		}
		for i := range sr {
			if sr[i] != br[i] {
				t.Fatalf("user %d rank %d: sequential %+v, batch %+v", u, i, sr[i], br[i])
			}
		}
	}
	m := bat.Metrics()
	if got := m.Counters["engine/observe/batches"]; got != 1 {
		t.Fatalf("engine/observe/batches = %d, want 1", got)
	}
	if got := m.Counters["engine/observe/actions"]; got != uint64(len(test)) {
		t.Fatalf("engine/observe/actions = %d, want %d", got, len(test))
	}
}

// TestObserveBatchRejectsInvalidSlots checks slot alignment: an invalid
// action is rejected in place without derailing the rest of the batch.
func TestObserveBatchRejectsInvalidSlots(t *testing.T) {
	ds, test, engines := servingEngines(t, 1)
	e := engines[0]
	batch := make([]Action, 0, len(test)+1)
	batch = append(batch, test[:3]...)
	batch = append(batch, Action{User: test[0].User, Tweet: TweetID(ds.NumTweets()), Time: test[0].Time})
	batch = append(batch, test[3:6]...)
	errs := e.ObserveBatch(batch)
	for i, err := range errs {
		if i == 3 {
			if err == nil {
				t.Fatal("out-of-range tweet accepted")
			}
			continue
		}
		if err != nil {
			t.Fatalf("valid slot %d rejected: %v", i, err)
		}
	}
	if got := len(e.ObservedActions()); got != 6 {
		t.Fatalf("applied %d actions, want 6 (the valid slots)", got)
	}
}

// groupSyncLog is a buffered ActionLog whose per-record appends succeed
// but whose group commit fails: exactly the shape ObserveBatch must
// downgrade to per-slot degraded errors. It also counts sync calls —
// the batch contract is ONE durability wait per batch.
type groupSyncLog struct {
	n     uint64
	syncs int
	fail  bool
}

func (l *groupSyncLog) Append(a Action) (uint64, error)         { l.n++; return l.n - 1, nil }
func (l *groupSyncLog) AppendBuffered(a Action) (uint64, error) { l.n++; return l.n - 1, nil }
func (l *groupSyncLog) NextIndex() uint64                       { return l.n }
func (l *groupSyncLog) SyncAfterAppend() error {
	l.syncs++
	if l.fail {
		return fmt.Errorf("stub group sync failed: %w", ErrWALRecordLogged)
	}
	return nil
}

// TestObserveBatchGroupCommit pins both halves of the group-commit
// contract: a clean batch pays exactly one durability wait, and a
// failed wait degrades every logged slot while keeping the actions
// applied (recovery may replay them; see Observe's contract).
func TestObserveBatchGroupCommit(t *testing.T) {
	ds := testDataset(t)
	train, test, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	wal := &groupSyncLog{}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.WAL = wal
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}

	half := len(test) / 2
	for i, err := range e.ObserveBatch(test[:half]) {
		if err != nil {
			t.Fatalf("clean batch slot %d: %v", i, err)
		}
	}
	if wal.syncs != 1 {
		t.Fatalf("clean batch of %d paid %d durability waits, want 1", half, wal.syncs)
	}

	wal.fail = true
	errs := e.ObserveBatch(test[half:])
	for i, err := range errs {
		if !errors.Is(err, ErrWALRecordLogged) {
			t.Fatalf("degraded batch slot %d: %v, want ErrWALRecordLogged wrap", i, err)
		}
	}
	if wal.syncs != 2 {
		t.Fatalf("degraded batch paid %d extra durability waits, want 1", wal.syncs-1)
	}
	if got := len(e.ObservedActions()); got != len(test) {
		t.Fatalf("applied %d actions, want %d (degraded slots stay applied)", got, len(test))
	}
	if got := e.Metrics().Counters["engine/wal/degraded_appends"]; got != uint64(len(test)-half) {
		t.Fatalf("engine/wal/degraded_appends = %d, want %d", got, len(test)-half)
	}
}

// TestObserveAllocs pins the allocation cost of Observe, which is a
// batch of one through ObserveBatch's body: sharing that body must cost
// it nothing. The ceilings are what the single-action path cost before
// the two were merged, on this fixture — a warmed engine streaming
// fresh test actions, with no WAL and with a buffered durable WAL.
func TestObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, tc := range []struct {
		name    string
		wal     bool
		ceiling float64
	}{
		{"no-wal", false, 6},
		{"buffered-wal", true, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := testDataset(t)
			train, test, err := SplitDataset(ds, 0.8)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultEngineOptions()
			opts.Train = train
			opts.Postpone = false
			if tc.wal {
				// An hour-long interval keeps the group-commit ticker out
				// of the measurement.
				w, err := durable.OpenWAL(t.TempDir(), durable.WALOptions{Sync: durable.SyncInterval, SyncEvery: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				opts.WAL = w
			}
			e, err := NewEngine(ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			warm := len(test) / 2
			for _, a := range test[:warm] {
				if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
					t.Fatal(err)
				}
			}
			next := warm
			allocs := testing.AllocsPerRun(100, func() {
				a := test[next]
				next++
				if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > tc.ceiling {
				t.Fatalf("Observe costs %v allocs/op, ceiling %v", allocs, tc.ceiling)
			}
		})
	}
}

// TestRecommendAllocs pins the allocation cost of Recommend on
// BenchmarkRecommendSerial's fixture, averaged over the same sweep of
// every user (most of them take the cold-start path). The ceiling is the
// measured steady-state cost with the flat candidate pool (it was 118
// with the map-based pool); it may only go down.
func TestRecommendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const ceiling = 10
	servingFixture()
	eng, now := servingState.eng, servingState.now
	users := eng.Dataset().NumUsers()
	// One sweep first: each pool slot grows its reusable top-k buffer on
	// its first read, which the benchmark's many sweeps amortize away.
	for u := 0; u < users; u++ {
		eng.Recommend(UserID(u), 10, now)
	}
	next := 0
	allocs := testing.AllocsPerRun(users, func() {
		eng.Recommend(UserID(next%users), 10, now)
		next++
	})
	if allocs > ceiling {
		t.Fatalf("Recommend costs %v allocs/op, ceiling %v", allocs, ceiling)
	}
}

// TestRefreshFiresOneFullInvalidation pins the refresh side of the
// score-change hook: replaying the observed log into the replacement
// recommender must not name users on the live hook (those calls would
// evict the old recommender's cache entries one lock at a time), so a
// refresh with no concurrent writes fires exactly one call — the nil
// flush after the install.
func TestRefreshFiresOneFullInvalidation(t *testing.T) {
	_, test, engines := servingEngines(t, 1)
	e := engines[0]
	for _, a := range test {
		if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
			t.Fatal(err)
		}
	}
	var calls [][]UserID
	e.SetOnScoresChanged(func(users []UserID) { calls = append(calls, users) })
	st := e.RefreshGraphStats(UpdateFromScratch)
	if st.Replayed == 0 {
		t.Fatal("refresh replayed no actions; the fixture does not exercise the replay")
	}
	if len(calls) != 1 || calls[0] != nil {
		named := 0
		for _, c := range calls {
			named += len(c)
		}
		t.Fatalf("refresh fired the hook %d times naming %d users, want one nil call", len(calls), named)
	}
}

// TestSetOnScoresChangedFires covers the cache-invalidation hook: an
// observe fires it with the acting user, a graph refresh fires it with
// nil (assume everything changed), and installing nil uninstalls it.
func TestSetOnScoresChangedFires(t *testing.T) {
	_, test, engines := servingEngines(t, 1)
	e := engines[0]
	// The hook may run under engine locks; it must only record, never
	// call back into the Engine. Fires are synchronous here (no drain
	// workers: Postpone is off), so no mutex is needed in this test.
	var gotNil bool
	fires := 0
	seen := make(map[UserID]bool)
	e.SetOnScoresChanged(func(users []UserID) {
		fires++
		if users == nil {
			gotNil = true
			return
		}
		for _, u := range users {
			seen[u] = true
		}
	})
	a := test[0]
	if err := e.Observe(a.User, a.Tweet, a.Time); err != nil {
		t.Fatal(err)
	}
	if !seen[a.User] {
		t.Fatalf("hook never saw acting user %d (saw %v)", a.User, seen)
	}
	if gotNil {
		t.Fatal("observe fired a nil (full) invalidation")
	}
	e.RefreshGraph(UpdateIncremental)
	if !gotNil {
		t.Fatal("graph refresh did not fire the full (nil) invalidation")
	}

	e.SetOnScoresChanged(nil)
	before := fires
	if err := e.Observe(test[1].User, test[1].Tweet, test[1].Time); err != nil {
		t.Fatal(err)
	}
	if fires != before {
		t.Fatalf("uninstalled hook fired %d more times", fires-before)
	}
}

// TestMaxAgeReachesRecommender: EngineOptions.MaxAge is the one freshness
// horizon. At MaxAge = 200 h a retweet of a 100 h-old tweet is fresh, so
// it must propagate and raise the score of a user the sharer influences
// in the similarity graph. The recommender used to keep its 72 h default
// whatever MaxAge said, and dropped that propagation while the pool went
// on serving against 200 h.
func TestMaxAgeReachesRecommender(t *testing.T) {
	ds := testDataset(t)
	train, _, err := SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultEngineOptions()
	opts.Train = train
	opts.MaxAge = 200 * Hour
	opts.ColdStartFallback = false
	e, err := NewEngine(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// The sharer with the widest influence, a tweet they did not write,
	// and a user they influence who is not that tweet's author.
	g := e.rec.Graph()
	var sharer UserID
	for u := 0; u < ds.NumUsers(); u++ {
		if g.InDegree(UserID(u)) > g.InDegree(sharer) {
			sharer = UserID(u)
		}
	}
	tw := TweetID(0)
	for ds.Tweets[tw].Author == sharer {
		tw++
	}
	var follower UserID
	found := false
	influenced, _ := g.In(sharer)
	for _, v := range influenced {
		if v != ds.Tweets[tw].Author {
			follower, found = v, true
			break
		}
	}
	if !found {
		t.Fatal("the widest sharer influences nobody but the author")
	}

	at := ds.Tweets[tw].Time + 100*Hour
	score := func() float64 {
		for _, r := range e.Recommend(follower, ds.NumTweets(), at) {
			if r.Tweet == tw {
				return r.Score
			}
		}
		return 0
	}
	if s := score(); s != 0 {
		t.Fatalf("follower %d already scores tweet %d at %v before any share", follower, tw, s)
	}
	if err := e.Observe(sharer, tw, at); err != nil {
		t.Fatal(err)
	}
	if s := score(); s <= 0 {
		t.Fatalf("retweet of a 100 h-old tweet under a 200 h horizon left follower %d's score at %v", follower, s)
	}
}
