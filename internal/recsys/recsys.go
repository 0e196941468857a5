// Package recsys defines the interface every recommendation method in the
// evaluation implements (SimGraph, CF, Bayes, GraphJet), plus the shared
// candidate-pool and top-k machinery they build on.
//
// The evaluation protocol (§6.1) is streaming: methods are initialized on
// the training split, then observe the test actions one by one in time
// order; at each day boundary the harness asks for each tracked user's
// ranked recommendations.
package recsys

import (
	"sync"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/similarity"
)

// ScoredTweet is one ranked recommendation.
type ScoredTweet struct {
	Tweet ids.TweetID
	Score float64
}

// Context carries everything a method needs for initialization.
type Context struct {
	// Dataset is the full dataset (graph + tweets). Methods must not read
	// Actions beyond Train — the rest is the hidden test set.
	Dataset *dataset.Dataset
	// Train is the training action log (a prefix of Dataset.Actions).
	Train []dataset.Action
	// Store holds profiles/popularity built from Train. Methods that
	// observe test actions incrementally may update it; the harness gives
	// each method its own copy.
	Store *similarity.Store
	// Tracked lists the users the harness will query; methods may ignore
	// score updates for everyone else (a pure optimization: the paper
	// evaluates on a 1 500-user sample too).
	Tracked []ids.UserID
	// MaxAge is the freshness horizon: tweets older than this are never
	// recommended (§3.1.2 concludes 72 h).
	MaxAge ids.Timestamp
	// Seed feeds any randomized method (GraphJet walks).
	Seed uint64
}

// NewContext assembles a Context with its own similarity store.
func NewContext(ds *dataset.Dataset, train []dataset.Action, tracked []ids.UserID, seed uint64) *Context {
	return &Context{
		Dataset: ds,
		Train:   train,
		Store:   similarity.NewStore(ds.NumUsers(), ds.NumTweets(), train),
		Tracked: tracked,
		MaxAge:  72 * ids.Hour,
		Seed:    seed,
	}
}

// Recommender is one evaluated method.
type Recommender interface {
	// Name identifies the method in reports ("SimGraph", "CF", ...).
	Name() string
	// Init trains the method. Called once before any Observe/Recommend.
	Init(ctx *Context) error
	// Observe feeds one test action in time order.
	Observe(a dataset.Action)
	// Recommend returns up to k fresh recommendations for u, best first,
	// based on everything observed strictly before now.
	Recommend(u ids.UserID, k int, now ids.Timestamp) []ScoredTweet
}

// Pool accumulates per-user candidate tweets with scores. It serves the
// three message-centric methods (SimGraph, CF, Bayes): observing a
// message updates candidate scores for tracked users; Recommend drains
// the freshest top-k.
//
// Storage is flat. A dense UserID → slot array finds a tracked user's
// slot. Each slot keeps its candidates in an entries slice and one
// map from tweet to entry index; a tweet the user already shared maps to
// the shared sentinel instead of an index, so Bump, Add and MarkRetweeted
// each probe one map. TopK scans the entries slice, swap-removing the
// expired ones, into a typed bounded heap the slot reuses across reads.
// Retire lets a writer drop a tweet that left the freshness horizon
// without waiting for a read to expire it.
//
// The pool is safe for concurrent use. Locking is split per tracked user
// (one mutex per slot), so readers of different users never contend and
// the serving layer scales with cores; only same-user operations
// serialize. The slot array itself is immutable after NewPool.
type Pool struct {
	slotOf   []int32 // user → slot, or -1 if untracked; read-only after NewPool
	slots    []poolSlot
	pubTimes func(ids.TweetID) ids.Timestamp
	maxAge   ids.Timestamp
}

// shared is the index sentinel for a tweet the slot's user already
// shared: it stays out of entries and refuses later bumps.
const shared int32 = -1

// poolSlot is one tracked user's candidate state plus its lock.
type poolSlot struct {
	mu      sync.Mutex
	index   map[ids.TweetID]int32 // tweet → entries index, or shared; nil until the first write
	entries []ScoredTweet
	heap    []ScoredTweet // TopK scratch, reused across reads
}

// NewPool creates a pool for the tracked users. pubTime resolves a
// tweet's publication time for freshness eviction.
func NewPool(tracked []ids.UserID, pubTime func(ids.TweetID) ids.Timestamp, maxAge ids.Timestamp) *Pool {
	n := 0
	for _, u := range tracked {
		if int(u) >= n {
			n = int(u) + 1
		}
	}
	p := &Pool{
		slotOf:   make([]int32, n),
		slots:    make([]poolSlot, len(tracked)),
		pubTimes: pubTime,
		maxAge:   maxAge,
	}
	for i := range p.slotOf {
		p.slotOf[i] = -1
	}
	for i, u := range tracked {
		p.slotOf[u] = int32(i)
	}
	return p
}

// slot returns u's slot, or nil for an untracked user.
func (p *Pool) slot(u ids.UserID) *poolSlot {
	if int(u) >= len(p.slotOf) || p.slotOf[u] < 0 {
		return nil
	}
	return &p.slots[p.slotOf[u]]
}

// Tracks reports whether u is a tracked user.
func (p *Pool) Tracks(u ids.UserID) bool { return p.slot(u) != nil }

// Bump raises u's candidate score for t to at least score (no-op for
// untracked users and tweets the user already shared).
func (p *Pool) Bump(u ids.UserID, t ids.TweetID, score float64) {
	s := p.slot(u)
	if s == nil {
		return
	}
	s.mu.Lock()
	if i, ok := s.index[t]; !ok {
		s.insert(t, score)
	} else if i != shared && score > s.entries[i].Score {
		s.entries[i].Score = score
	}
	s.mu.Unlock()
}

// Add accumulates score onto u's candidate entry for t.
func (p *Pool) Add(u ids.UserID, t ids.TweetID, score float64) {
	s := p.slot(u)
	if s == nil {
		return
	}
	s.mu.Lock()
	if i, ok := s.index[t]; !ok {
		s.insert(t, score)
	} else if i != shared {
		s.entries[i].Score += score
	}
	s.mu.Unlock()
}

// MarkRetweeted records that u shared t, removing it from u's candidates
// permanently (recommending it back would be pointless).
func (p *Pool) MarkRetweeted(u ids.UserID, t ids.TweetID) {
	s := p.slot(u)
	if s == nil {
		return
	}
	s.mu.Lock()
	if i, ok := s.index[t]; ok && i != shared {
		s.removeAt(i)
	}
	if s.index == nil {
		s.index = make(map[ids.TweetID]int32)
	}
	s.index[t] = shared
	s.mu.Unlock()
}

// Retire forgets t in u's pool: its candidate entry and its shared mark
// alike. Callers retire a tweet once it is past the freshness horizon
// for every read to come, where TopK would drop it anyway; what Retire
// adds is that the memory goes back without waiting for a read.
func (p *Pool) Retire(u ids.UserID, t ids.TweetID) {
	s := p.slot(u)
	if s == nil {
		return
	}
	s.mu.Lock()
	if i, ok := s.index[t]; ok {
		if i != shared {
			s.removeAt(i)
		}
		delete(s.index, t)
	}
	s.mu.Unlock()
}

// TopK returns u's best k fresh candidates at time now, best first,
// evicting expired entries as it scans. It returns nil when u has no
// fresh candidate.
func (p *Pool) TopK(u ids.UserID, k int, now ids.Timestamp) []ScoredTweet {
	s := p.slot(u)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.heap[:0]
	for i := 0; i < len(s.entries); {
		e := s.entries[i]
		if now-p.pubTimes(e.Tweet) > p.maxAge {
			// The swap moves an unscanned entry into i.
			s.removeAt(int32(i))
			delete(s.index, e.Tweet)
			continue
		}
		h = offer(h, k, e)
		i++
	}
	out := ranked(h)
	s.heap = h[:0]
	return out
}

// Size returns the number of candidates currently pooled for u.
func (p *Pool) Size(u ids.UserID) int {
	s := p.slot(u)
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// insert appends a new candidate for t. Callers hold s.mu and know t is
// not in the index.
func (s *poolSlot) insert(t ids.TweetID, score float64) {
	if s.index == nil {
		s.index = make(map[ids.TweetID]int32)
	}
	s.index[t] = int32(len(s.entries))
	s.entries = append(s.entries, ScoredTweet{t, score})
}

// removeAt swap-removes entries[i], re-pointing the index at the entry
// moved into its place. The removed tweet's own index key is left for
// the caller to delete or overwrite. Callers hold s.mu.
func (s *poolSlot) removeAt(i int32) {
	last := int32(len(s.entries) - 1)
	if i != last {
		moved := s.entries[last]
		s.entries[i] = moved
		s.index[moved.Tweet] = i
	}
	s.entries = s.entries[:last]
}

// TopK is a bounded collector that keeps the k highest-scored tweets.
type TopK struct {
	k int
	h []ScoredTweet
}

// NewTopK returns a collector for the k best items.
func NewTopK(k int) *TopK {
	return &TopK{k: k, h: make([]ScoredTweet, 0, max(k, 0))}
}

// Offer considers one candidate.
func (t *TopK) Offer(tweet ids.TweetID, score float64) {
	t.h = offer(t.h, t.k, ScoredTweet{tweet, score})
}

// Ranked drains the collector, best first, or returns nil if nothing
// was offered. Ties break on lower TweetID for determinism.
func (t *TopK) Ranked() []ScoredTweet {
	out := ranked(t.h)
	t.h = t.h[:0]
	return out
}

// The functions below keep h as a min-heap under weaker, so h[0] is the
// weakest of the k best seen so far: a candidate enters the heap only by
// beating it.

// weaker reports whether a ranks below b: lower score, with ties broken
// toward the higher TweetID.
func weaker(a, b ScoredTweet) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Tweet > b.Tweet
}

// offer adds x to the heap h of at most k items and returns it.
func offer(h []ScoredTweet, k int, x ScoredTweet) []ScoredTweet {
	switch {
	case len(h) < k:
		h = append(h, x)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !weaker(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	case k > 0 && weaker(h[0], x):
		h[0] = x
		siftDown(h)
	}
	return h
}

// siftDown restores the heap order below the root.
func siftDown(h []ScoredTweet) {
	for i := 0; ; {
		least, l := i, 2*i+1
		if l < len(h) && weaker(h[l], h[least]) {
			least = l
		}
		if r := l + 1; r < len(h) && weaker(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// ranked pops every item of the heap h into a new slice, best first, or
// returns nil for an empty heap. It consumes h's contents.
func ranked(h []ScoredTweet) []ScoredTweet {
	if len(h) == 0 {
		return nil
	}
	out := make([]ScoredTweet, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = h[0]
		h[0] = h[i]
		h = h[:i]
		siftDown(h)
	}
	return out
}
