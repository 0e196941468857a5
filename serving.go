package repro

// This file holds the serving-layer entry points of the Engine: the
// write path every observed action takes (ObserveBatch, and Observe as
// a batch of one) and the cache-aware read path
// (RecommendWithColdStart) that tells the caller whether the result
// came from the cold-start fallback — which aggregates OTHER users'
// pools and is therefore not invalidated by the SetOnScoresChanged
// hook, so serving caches must not hold it. internal/server is the
// consumer.

import (
	"errors"
	"fmt"
	"time"
)

// ObserveBatch applies a batch of retweets in input order, each through
// Observe's write path, with — when the WAL supports buffered appends —
// one durability wait for the whole batch instead of a wait per action.
// The exclusive lock is entered once per action and held only for its
// ordered step, so concurrent callers' propagations overlap; their
// durability waits are grouped by the WAL itself: one fsync covers every
// record flushed before it began.
//
// The result has one slot per action, aligned with the input: nil when
// the action was applied (and durably logged), an error wrapping
// ErrWALRecordLogged when it was applied and logged but durability is
// in doubt (append-after-write failure, or the batch's group sync
// failed), and any other error when the action was rejected without
// side effects (validation or a not-logged WAL failure). Actions are
// applied in input order; a rejected action does not stop the rest of
// the batch.
func (e *Engine) ObserveBatch(actions []Action) []error {
	errs := make([]error, len(actions))
	e.observe(actions, errs)
	return errs
}

// observe is the engine's one write path, shared by Observe and
// ObserveBatch (and through them by the server, the shard router,
// crash recovery and the replication follower). It validates, then runs
// each action in two steps. The ordered step holds the exclusive lock:
// append to the WAL, append to the observed log, update the profile
// store, and run the recommender's ordered half, which ends holding the
// tweet's state lock. The unordered step runs after the lock is
// released: the propagation, which unlocks the state. Because the state
// lock is taken in log order, writes to one tweet still propagate in
// log order; writes to distinct tweets propagate in parallel. Last, with
// no lock held, one durability wait covers every cleanly logged slot.
// errs is aligned with actions.
func (e *Engine) observe(actions []Action, errs []error) {
	if len(actions) == 0 {
		return
	}
	start := time.Now()
	for i, a := range actions {
		errs[i] = validateIDs(e.ds, a.User, a.Tweet)
	}
	applied, logged := 0, 0
	for i, a := range actions {
		if errs[i] != nil {
			continue
		}
		waited := time.Now()
		e.mu.Lock()
		locked := time.Now()
		if e.wal != nil {
			// WAL-before-apply: an append that never reached the log
			// rejects the action, so the log never trails the applied
			// state. The buffered form defers the fsync wait past the
			// loop.
			var err error
			if e.walBuf != nil {
				_, err = e.walBuf.AppendBuffered(a)
			} else {
				_, err = e.wal.Append(a)
			}
			if err != nil {
				if !errors.Is(err, ErrWALRecordLogged) {
					e.mu.Unlock()
					errs[i] = fmt.Errorf("repro: WAL append: %w", err)
					continue
				}
				errs[i] = e.walDegraded(err)
			} else if e.walBuf != nil {
				logged++
			}
		}
		e.observed = append(e.observed, a)
		if a.Time > e.observedNewest {
			e.observedNewest = a.Time
		}
		e.mObservedLen.Set(int64(len(e.observed)))
		e.store.Observe(a.User, a.Tweet)
		// A refresh may swap e.rec once the lock is released; the pending
		// propagation belongs to the recommender that sequenced it.
		rec := e.rec
		pending := rec.Sequence(a)
		released := time.Now()
		e.mu.Unlock()
		rec.Propagate(pending)
		e.mLockWait.Observe(int64(locked.Sub(waited)))
		e.mLocked.Observe(int64(released.Sub(locked)))
		e.mPropagate.ObserveDuration(time.Since(released))
		applied++
	}
	if logged > 0 {
		// One durability wait for the whole call, after the lock. A failed
		// sync leaves every cleanly logged action — exactly the slots
		// still nil — applied but of doubtful durability.
		if err := e.walBuf.SyncAfterAppend(); err != nil {
			for i := range errs {
				if errs[i] == nil {
					errs[i] = e.walDegraded(err)
				}
			}
		}
	}
	e.mObserves.Add(uint64(applied))
	e.mBatches.Inc()
	e.mBatchSize.Observe(int64(len(actions)))
	e.mObserveLat.ObserveDuration(time.Since(start))
}

// walDegraded counts and wraps a WAL failure that struck after the
// record was logged: the action is applied, its durability in doubt.
func (e *Engine) walDegraded(err error) error {
	e.mWALDegraded.Inc()
	return fmt.Errorf("repro: WAL degraded (action applied and logged): %w", err)
}

// RecommendWithColdStart is Recommend, additionally reporting whether
// the result came from the cold-start followee aggregation. A cold
// result depends on the FOLLOWEES' candidate pools, not on u's own
// state, so the SetOnScoresChanged hook gives no signal when it goes
// stale — serving caches must treat cold results as uncacheable.
func (e *Engine) RecommendWithColdStart(u UserID, k int, now Timestamp) ([]Recommendation, bool) {
	if int(u) >= e.ds.NumUsers() || k <= 0 {
		return nil, false
	}
	start := time.Now()
	defer func() {
		e.mRecommendLat.ObserveDuration(time.Since(start))
		e.mRecommends.Inc()
	}()
	e.mu.RLock()
	defer e.mu.RUnlock()
	scored := e.rec.Recommend(u, k, now)
	if len(scored) == 0 && e.opts.ColdStartFallback {
		e.mColdStarts.Inc()
		return e.coldStartRecommend(u, k, now), true
	}
	out := make([]Recommendation, len(scored))
	for i, s := range scored {
		out[i] = Recommendation{Tweet: s.Tweet, Score: s.Score}
	}
	return out, false
}
