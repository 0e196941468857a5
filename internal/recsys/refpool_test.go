package recsys

import (
	"container/heap"
	"sort"
	"sync"

	"repro/internal/ids"
)

// This file freezes the map-based candidate pool and its container/heap
// top-k collector as they stood before the pool went flat. They are the
// oracle FuzzPoolDifferential holds Pool to, the way RefIncremental
// anchors the propagation kernel. Only identifiers are renamed.

// refPool accumulates per-user candidate tweets with scores, evicting stale
// tweets lazily. It serves the three message-centric methods (SimGraph,
// CF, Bayes): observing a message updates candidate scores for tracked
// users; Recommend drains the freshest top-k.
//
// The pool is safe for concurrent use. Locking is split per tracked user
// (one mutex per slot), so readers of different users never contend and
// the serving layer scales with cores; only same-user operations
// serialize. The tracked map itself is immutable after newRefPool.
type refPool struct {
	tracked  map[ids.UserID]int // user → slot; read-only after newRefPool
	slots    []refPoolSlot
	pubTimes func(ids.TweetID) ids.Timestamp
	maxAge   ids.Timestamp
}

// refPoolSlot is one tracked user's candidate state plus its lock.
type refPoolSlot struct {
	mu        sync.Mutex
	entries   map[ids.TweetID]float64
	retweeted map[ids.TweetID]struct{} // tweets the user already shared
}

// newRefPool creates a pool for the tracked users. pubTime resolves a
// tweet's publication time for freshness eviction.
func newRefPool(tracked []ids.UserID, pubTime func(ids.TweetID) ids.Timestamp, maxAge ids.Timestamp) *refPool {
	p := &refPool{
		tracked:  make(map[ids.UserID]int, len(tracked)),
		slots:    make([]refPoolSlot, len(tracked)),
		pubTimes: pubTime,
		maxAge:   maxAge,
	}
	for i, u := range tracked {
		p.tracked[u] = i
		p.slots[i].entries = make(map[ids.TweetID]float64)
		p.slots[i].retweeted = make(map[ids.TweetID]struct{})
	}
	return p
}

// Tracks reports whether u is a tracked user.
func (p *refPool) Tracks(u ids.UserID) bool {
	_, ok := p.tracked[u]
	return ok
}

// Bump raises u's candidate score for t to at least score (no-op for
// untracked users and tweets the user already shared).
func (p *refPool) Bump(u ids.UserID, t ids.TweetID, score float64) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, shared := s.retweeted[t]; shared {
		return
	}
	if cur, exists := s.entries[t]; !exists || score > cur {
		s.entries[t] = score
	}
}

// Add accumulates score onto u's candidate entry for t.
func (p *refPool) Add(u ids.UserID, t ids.TweetID, score float64) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, shared := s.retweeted[t]; shared {
		return
	}
	s.entries[t] += score
}

// MarkRetweeted records that u shared t, removing it from u's candidates
// permanently (recommending it back would be pointless).
func (p *refPool) MarkRetweeted(u ids.UserID, t ids.TweetID) {
	slot, ok := p.tracked[u]
	if !ok {
		return
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retweeted[t] = struct{}{}
	delete(s.entries, t)
}

// TopK returns u's best k fresh candidates at time now, evicting expired
// entries as it scans.
func (p *refPool) TopK(u ids.UserID, k int, now ids.Timestamp) []ScoredTweet {
	slot, ok := p.tracked[u]
	if !ok {
		return nil
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	var expired []ids.TweetID
	h := newRefTopK(k)
	for t, sc := range s.entries {
		if now-p.pubTimes(t) > p.maxAge {
			expired = append(expired, t)
			continue
		}
		h.Offer(t, sc)
	}
	for _, t := range expired {
		delete(s.entries, t)
	}
	return h.Ranked()
}

// Size returns the number of candidates currently pooled for u.
func (p *refPool) Size(u ids.UserID) int {
	slot, ok := p.tracked[u]
	if !ok {
		return 0
	}
	s := &p.slots[slot]
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// refTopK is a bounded min-heap that keeps the k highest-scored tweets.
type refTopK struct {
	k int
	h refScoredHeap
}

// newRefTopK returns a collector for the k best items.
func newRefTopK(k int) *refTopK {
	return &refTopK{k: k, h: make(refScoredHeap, 0, k+1)}
}

// Offer considers one candidate.
func (t *refTopK) Offer(tweet ids.TweetID, score float64) {
	if t.k <= 0 {
		return
	}
	if len(t.h) < t.k {
		heap.Push(&t.h, ScoredTweet{tweet, score})
		return
	}
	if score > t.h[0].Score || (score == t.h[0].Score && tweet < t.h[0].Tweet) {
		t.h[0] = ScoredTweet{tweet, score}
		heap.Fix(&t.h, 0)
	}
}

// Ranked drains the collector, best first. Ties break on lower TweetID
// for determinism.
func (t *refTopK) Ranked() []ScoredTweet {
	out := make([]ScoredTweet, len(t.h))
	copy(out, t.h)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Tweet < out[j].Tweet
	})
	t.h = t.h[:0]
	return out
}

// refScoredHeap is a min-heap on (Score, then reversed TweetID) so the root
// is the weakest element.
type refScoredHeap []ScoredTweet

func (h refScoredHeap) Len() int { return len(h) }
func (h refScoredHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Tweet > h[j].Tweet
}
func (h refScoredHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refScoredHeap) Push(x interface{}) { *h = append(*h, x.(ScoredTweet)) }
func (h *refScoredHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
