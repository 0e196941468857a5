package shard

// Serving-layer entry points of the Router, mirroring the Engine's:
// batched writes that cost one lock entry + durability wait PER SHARD,
// the score-change hook a serving cache invalidates from, and the
// cold-start-aware read path. internal/server drives a Router
// exclusively through these plus the core Router API.

import (
	"fmt"
	"sync"

	"repro"
)

// ObserveBatch partitions the batch by owner shard and applies each
// shard's sub-batch with one (*repro.Engine).ObserveBatch call, so the
// whole batch costs at most one exclusive-lock entry and one durability
// wait per shard — and the per-shard sub-batches run concurrently, which
// is how a single producer (a stream tailer, a replication feed) keeps
// every shard busy: hand the router fixed-size chunks of the stream.
//
// The result is aligned with the input, one slot per action, with the
// engine batch contract per slot: nil (applied, durable), an error
// wrapping repro.ErrWALRecordLogged (applied and logged, durability in
// doubt), or a rejection error (no side effects). Relative order is
// preserved per user (a user's actions all land on one shard, in input
// order); cross-user order across shards is not, and never influences
// state (an action only touches its owner).
func (r *Router) ObserveBatch(actions []repro.Action) []error {
	errs := make([]error, len(actions))
	if len(actions) == 0 {
		return errs
	}
	perShard := make([][]int, len(r.shards))
	for i, a := range actions {
		if int(a.User) >= r.ds.NumUsers() {
			// An out-of-range user has no owner on the ring; reject here.
			// Invalid tweet IDs are the owning engine's business.
			errs[i] = fmt.Errorf("repro: user %d out of range (dataset has %d users)", a.User, r.ds.NumUsers())
			continue
		}
		s := r.ring.Owner(a.User)
		perShard[s] = append(perShard[s], i)
	}
	var wg sync.WaitGroup
	for s, idxs := range perShard {
		if len(idxs) == 0 {
			continue
		}
		wg.Add(1)
		go func(s int, idxs []int) {
			defer wg.Done()
			sub := make([]repro.Action, len(idxs))
			for j, i := range idxs {
				sub[j] = actions[i]
			}
			subErrs := r.shards[s].ObserveBatch(sub)
			for j, i := range idxs {
				errs[i] = subErrs[j]
				r.noteObserved(s, actions[i].Tweet, subErrs[j])
			}
		}(s, idxs)
	}
	wg.Wait()
	return errs
}

// SetOnScoresChanged installs fn on every shard engine (see
// repro.Engine.SetOnScoresChanged for the contract: fn may run under
// engine locks and concurrently from many goroutines, and a nil users
// slice means "assume everything changed"). One hook serves the fleet;
// the caller cannot tell which shard fired, and does not need to — the
// user IDs identify the invalidation targets.
func (r *Router) SetOnScoresChanged(fn func(users []repro.UserID)) {
	for _, e := range r.shards {
		e.SetOnScoresChanged(fn)
	}
}

// RecommendWithColdStart is Recommend, additionally reporting whether
// the result came from the cold-start scatter-gather. Cold results
// aggregate the followees' pools across shards, so the per-user
// score-change hook gives no staleness signal for them — serving
// caches must not hold them (same contract as the engine method).
func (r *Router) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	if k <= 0 || int(u) >= r.ds.NumUsers() {
		return nil, false
	}
	s := r.ring.Owner(u)
	r.mRecommends.Inc()
	r.mShardRecs[s].Inc()
	out, cold := r.shards[s].RecommendWithColdStart(u, k, now)
	if len(out) > 0 || r.opts.DisableColdStartFanout {
		return out, cold
	}
	return r.coldStartFanout(u, k, now), true
}
