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

// ObserveBatch applies a batch of retweets with ONE exclusive-lock
// entry and — when the WAL supports buffered appends — one durability
// wait for the whole batch, instead of a lock entry and a wait per
// action. Concurrent callers' waits are grouped further by the WAL
// itself: one fsync covers every record flushed before it began.
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
// crash recovery and the replication follower): validate, then under
// the exclusive lock append each action to the WAL before applying it,
// then — lock released — one durability wait for every cleanly logged
// slot. errs is aligned with actions.
func (e *Engine) observe(actions []Action, errs []error) {
	if len(actions) == 0 {
		return
	}
	start := time.Now()
	for i, a := range actions {
		errs[i] = validateIDs(e.ds, a.User, a.Tweet)
	}
	applied, logged := 0, 0
	e.mu.Lock()
	for i, a := range actions {
		if errs[i] != nil {
			continue
		}
		if e.wal != nil {
			// WAL-before-apply: an append that never reached the log
			// rejects the action, so the log never trails the applied
			// state. The buffered form defers the fsync wait past the
			// unlock.
			var err error
			if e.walBuf != nil {
				_, err = e.walBuf.AppendBuffered(a)
			} else {
				_, err = e.wal.Append(a)
			}
			if err != nil {
				if !errors.Is(err, ErrWALRecordLogged) {
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
		e.store.Observe(a.User, a.Tweet)
		e.rec.Observe(a)
		applied++
	}
	e.mObservedLen.Set(int64(len(e.observed)))
	e.mu.Unlock()
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
