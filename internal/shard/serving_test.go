package shard

import (
	"errors"
	"fmt"
	"testing"

	"repro"
)

// degradedLog is an ActionLog whose appends reach the log but report a
// post-write durability failure, the way a WAL behaves when the record
// hit the OS buffer and the fsync after it failed. Per the ActionLog
// contract the engine applies the action anyway and surfaces an error
// wrapping ErrWALRecordLogged.
type degradedLog struct{ next uint64 }

func (l *degradedLog) Append(a repro.Action) (uint64, error) {
	idx := l.next
	l.next++
	return idx, fmt.Errorf("stub fsync failed: %w", repro.ErrWALRecordLogged)
}

func (l *degradedLog) NextIndex() uint64 { return l.next }

// TestObserveBatchSurfacesDegradedAppends: a shard whose every append
// leaves durability in doubt must say so in each of its slots — wrapping
// ErrWALRecordLogged, so callers can tell degraded from lost — while
// those actions still apply and count (they ARE serving), and the
// healthy shards' slots stay nil.
func TestObserveBatchSurfacesDegradedAppends(t *testing.T) {
	fx := newFixture(t, 60, 7)
	r := fx.newFleet(t, Options{Shards: 4})

	// Rebuild shard 0's engine with the stub WAL; the fleet facade stays
	// untouched, so the router's routing and counters behave normally.
	owned := r.ring.Partition(fx.ds.NumUsers())
	so := shardEngineOptions(fx.eopts, fx.train, owned[0], r.ring, 0)
	so.WAL = &degradedLog{}
	e, err := repro.NewEngine(fx.ds, so)
	if err != nil {
		t.Fatal(err)
	}
	old := r.shards[0]
	r.shards[0] = e
	defer old.Close()

	errs := r.ObserveBatch(fx.test)
	degraded := 0
	for i, a := range fx.test {
		if r.Owner(a.User) != 0 {
			if errs[i] != nil {
				t.Fatalf("healthy-shard slot %d: %v", i, errs[i])
			}
			continue
		}
		degraded++
		if !errors.Is(errs[i], repro.ErrWALRecordLogged) {
			t.Fatalf("shard-0 slot %d: %v, want an ErrWALRecordLogged wrap", i, errs[i])
		}
	}
	if degraded == 0 {
		t.Fatal("fixture routes no test action to shard 0; vacuous test")
	}

	reg := r.MetricsRegistry()
	if got := reg.Counter("router/observes").Value(); got != uint64(len(fx.test)) {
		t.Errorf("router/observes = %d, want %d (degraded appends still apply)", got, len(fx.test))
	}
	if got := reg.Counter("router/shard/0/observes").Value(); got != uint64(degraded) {
		t.Errorf("router/shard/0/observes = %d, want %d", got, degraded)
	}
	if got := e.Metrics().Counters["engine/wal/degraded_appends"]; got != uint64(degraded) {
		t.Errorf("engine/wal/degraded_appends = %d, want %d", got, degraded)
	}
	if got := len(r.Shard(0).ObservedActions()); got != degraded {
		t.Errorf("shard 0 applied %d actions, want %d — degraded appends must still serve", got, degraded)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

// TestRouterObserveBatchMatchesSync pins the batched write path to the
// per-action path, fleet-wide: same per-shard observed logs, same
// recommendations for every user, same router counters.
func TestRouterObserveBatchMatchesSync(t *testing.T) {
	fx := newFixture(t, 120, 3)
	ref := fx.newFleet(t, Options{Shards: 4})
	defer ref.Close()
	batch := fx.newFleet(t, Options{Shards: 4})
	defer batch.Close()

	fx.feed(t, ref)
	for i, err := range batch.ObserveBatch(fx.test) {
		if err != nil {
			t.Fatalf("batch slot %d (%+v): %v", i, fx.test[i], err)
		}
	}

	a, b := ref.ObservedActions(), batch.ObservedActions()
	if len(a) != len(b) {
		t.Fatalf("observed logs diverge: sync %d, batch %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("observed[%d]: sync %+v, batch %+v", i, a[i], b[i])
		}
	}
	const k = 10
	assertSameFleetOutput(t, recommendAllRouter(ref, k, fx.now), recommendAllRouter(batch, k, fx.now), "batched fleet")

	if got := batch.MetricsRegistry().Counter("router/observes").Value(); got != uint64(len(fx.test)) {
		t.Errorf("router/observes = %d, want %d", got, len(fx.test))
	}
	var loads uint64
	for _, l := range batch.ShardLoads() {
		loads += l
	}
	if loads != uint64(len(fx.test)) {
		t.Errorf("shard loads sum to %d, want %d", loads, len(fx.test))
	}
	// The loss counter tracks per-action mask collisions, which depend on
	// the cross-shard interleaving — the batch path processes shards
	// concurrently, so only the presence of loss is comparable, not the
	// exact count.
	if ref.CrossShardObserves() > 0 && batch.CrossShardObserves() == 0 {
		t.Error("sync path sees cross-shard loss but the batch path counted none")
	}
}

// TestRouterObserveBatchSlotAlignment checks that invalid actions are
// rejected in their own slot without disturbing the rest of the batch.
func TestRouterObserveBatchSlotAlignment(t *testing.T) {
	fx := newFixture(t, 60, 5)
	r := fx.newFleet(t, Options{Shards: 2})
	defer r.Close()

	bad1 := repro.Action{User: repro.UserID(fx.ds.NumUsers()), Tweet: fx.test[0].Tweet, Time: fx.test[0].Time}
	bad2 := repro.Action{User: fx.test[0].User, Tweet: repro.TweetID(fx.ds.NumTweets()), Time: fx.test[0].Time}
	batch := []repro.Action{fx.test[0], bad1, fx.test[1], bad2, fx.test[2]}
	errs := r.ObserveBatch(batch)
	for _, i := range []int{0, 2, 4} {
		if errs[i] != nil {
			t.Errorf("valid slot %d rejected: %v", i, errs[i])
		}
	}
	for _, i := range []int{1, 3} {
		if errs[i] == nil {
			t.Errorf("invalid slot %d accepted", i)
		}
	}
	if got := len(r.ObservedActions()); got != 3 {
		t.Fatalf("applied %d actions, want 3", got)
	}
	if got := r.MetricsRegistry().Counter("router/observes").Value(); got != 3 {
		t.Errorf("router/observes = %d, want 3", got)
	}
}

// TestRouterRecommendWithColdStart checks the cold flag end to end: a
// warm user reads false, a cold user served by the fan-out reads true,
// and the served lists match plain Recommend.
func TestRouterRecommendWithColdStart(t *testing.T) {
	fx := newFixture(t, 120, 9)
	r := fx.newFleet(t, Options{Shards: 4})
	defer r.Close()
	fx.feed(t, r)

	const k = 10
	warms, colds := 0, 0
	for u := 0; u < fx.ds.NumUsers(); u++ {
		uid := repro.UserID(u)
		got, cold := r.RecommendWithColdStart(uid, k, fx.now)
		want := r.Recommend(uid, k, fx.now)
		if len(got) != len(want) {
			t.Fatalf("user %d: flagged path served %d, plain %d", u, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("user %d rank %d: flagged %+v, plain %+v", u, i, got[i], want[i])
			}
		}
		if cold {
			colds++
			if warm := r.Shard(r.Owner(uid)).Recommend(uid, k, fx.now); len(warm) > 0 {
				t.Fatalf("user %d flagged cold but owner shard serves %d", u, len(warm))
			}
		} else if len(got) > 0 {
			warms++
		}
	}
	if warms == 0 || colds == 0 {
		t.Fatalf("fixture exercises only one path: %d warm, %d cold served", warms, colds)
	}
}
