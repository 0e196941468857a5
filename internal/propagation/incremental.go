package propagation

import (
	"math"
	"sync"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// TweetState is the persistent, sparse propagation state of one tweet:
// the current share probabilities of every user the propagation has
// touched, plus the pinned seed set. It enables incremental propagation —
// when a new sharer arrives, only the part of the similarity graph whose
// scores actually change is recomputed, instead of re-running the fixpoint
// from the full seed set.
//
// The state is three flat slices: the touched users in first-touch order
// (seeds included, at probability 1), their scores in a parallel slice,
// and the seeds in pin order. AddSeeds walks them sequentially to scatter
// the state into dense scratch, and writes changed users back through
// the positions the scatter recorded, so neither side pays a map
// operation.
//
// Correctness: the propagation operator is monotone in the seed set (all
// weights are non-negative), so re-propagating from the newly changed
// nodes with the previous scores as the starting point converges to the
// same fixpoint Algorithm 1 reaches from scratch; the package tests
// verify the equivalence.
//
// TweetState carries its own mutex so independent tweets can be
// propagated by concurrent workers (the parallel postponed-batch drain):
// a caller holds Lock across AddSeeds plus any read of the state, and
// states of distinct tweets never contend.
type TweetState struct {
	mu     sync.Mutex
	users  []ids.UserID // touched users, first-touch order
	scores []float64    // scores[i] is users[i]'s share probability
	seeds  []ids.UserID // pinned seeds, pin order

	// Changed lists every non-seed user whose score changed in the last
	// AddSeeds call, in discovery order; ChangedScores[i] is Changed[i]'s
	// new score. Both are overwritten by the next call.
	Changed       []ids.UserID
	ChangedScores []float64
}

// NewTweetState returns empty per-tweet propagation state.
func NewTweetState() *TweetState { return &TweetState{} }

// Lock acquires the per-tweet mutex. Concurrent propagations into the
// same state must serialize on it; single-threaded callers may skip it.
func (st *TweetState) Lock() { st.mu.Lock() }

// Unlock releases the per-tweet mutex.
func (st *TweetState) Unlock() { st.mu.Unlock() }

// Users returns every user the propagation has touched, seeds included,
// in first-touch order. The slice is the state's own: read it under the
// lock and do not modify it.
func (st *TweetState) Users() []ids.UserID { return st.users }

// Seeds returns the pinned seeds in pin order. The slice is the state's
// own: read it under the lock and do not modify it.
func (st *TweetState) Seeds() []ids.UserID { return st.seeds }

// Scores returns a copy of every touched user's score keyed by user,
// seeds at 1. It costs O(touched) and allocates; it is the read accessor
// tests and tools compare states through, not a hot-path call.
func (st *TweetState) Scores() map[ids.UserID]float64 {
	m := make(map[ids.UserID]float64, len(st.users))
	for i, u := range st.users {
		m[u] = st.scores[i]
	}
	return m
}

// writeBack stores the score in u's dense slot into the state, appending
// u on first touch and recording its new position in the slot.
func (st *TweetState) writeBack(s *stateSlot, u ids.UserID) {
	if s.pos >= 0 {
		st.scores[s.pos] = s.p
		return
	}
	s.pos = int32(len(st.users))
	st.users = append(st.users, u)
	st.scores = append(st.scores, s.p)
}

// Incremental runs incremental propagations over one similarity graph.
// It owns scratch shared across tweets; not safe for concurrent use —
// the parallel drain checks one out per worker.
//
// The hot loop runs entirely on epoch-stamped dense scratch (epoch.go):
// AddSeeds scatters the TweetState's slices into a dense array of
// per-user records (score plus position in the state) once, so the
// per-edge influencer probe inside recompute is an array load, and
// changed users are written back at the end through the positions the
// scatter recorded. No step touches a map. RefIncremental freezes the
// previous map-probing implementation as the differential baseline.
type Incremental struct {
	cfg Config
	g   wgraph.View

	p       stateVec   // dense view of the state for the current call
	seed    epochMarks // dense view of the state's seeds
	inQ     epochMarks // queued-for-recompute marker
	changed epochMarks // dedups st.Changed without a per-call map
	queue   []ids.UserID

	// Stats of the last AddSeeds call.
	lastRecomputed  int
	lastRounds      int
	lastMaxFrontier int
}

// NewIncremental returns an incremental propagator over g.
func NewIncremental(g wgraph.View, cfg Config) *Incremental {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	return &Incremental{cfg: cfg, g: g}
}

// AddSeeds pins the given users to probability 1 in st and propagates the
// change outward. popularity is the tweet's current retweet count (drives
// the dynamic threshold). st.Changed lists every non-seed user whose
// score changed, in discovery order, and st.ChangedScores their new
// scores. Callers coordinating concurrent workers must hold st's lock.
func (inc *Incremental) AddSeeds(st *TweetState, seeds []ids.UserID, popularity int) {
	cutoff := inc.cfg.Threshold.Cutoff(popularity)
	st.Changed = st.Changed[:0]
	st.ChangedScores = st.ChangedScores[:0]
	n := inc.g.NumNodes()
	inc.p.reset(n)
	inc.seed.reset(n)
	inc.inQ.reset(n)
	inc.changed.reset(n)
	inc.queue = inc.queue[:0]

	// Scatter the state into the dense scratch: one sequential walk of
	// its slices, paid once per call instead of one probe per visited
	// edge.
	for i, u := range st.users {
		if int(u) < n {
			inc.p.load(u, i, st.scores[i])
		}
	}
	for _, u := range st.seeds {
		if int(u) < n {
			inc.seed.add(u)
		}
	}

	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		if inc.seed.has(s) {
			continue // already a seed (or duplicated within this batch)
		}
		inc.seed.add(s)
		st.seeds = append(st.seeds, s)
		inc.p.set(s, 1)
		st.writeBack(&inc.p.slot[s], s)
		inc.enqueueInfluenced(s)
	}

	// Budget: cap total recomputations like the dense algorithm caps
	// iterations; with per-node work this is MaxIterations × a generous
	// frontier width.
	budget := inc.cfg.MaxIterations * 4096
	recomputed, rounds := 0, 0
	roundEnd := len(inc.queue)
	maxFrontier := roundEnd
	if roundEnd > 0 {
		rounds = 1
	}
	for head := 0; head < len(inc.queue) && budget > 0; head++ {
		if head == roundEnd {
			rounds++
			if width := len(inc.queue) - roundEnd; width > maxFrontier {
				maxFrontier = width
			}
			roundEnd = len(inc.queue)
		}
		u := inc.queue[head]
		inc.inQ.del(u)
		if inc.seed.has(u) {
			continue
		}
		budget--
		recomputed++
		nv := inc.recompute(u)
		old := inc.p.get(u)
		delta := math.Abs(nv - old)
		if nv == 0 && old == 0 {
			continue
		}
		inc.p.set(u, nv)
		if !inc.changed.has(u) {
			inc.changed.add(u)
			st.Changed = append(st.Changed, u)
		}
		if delta >= cutoff {
			inc.enqueueInfluenced(u)
		}
	}
	inc.lastRecomputed = recomputed
	inc.lastRounds = rounds
	inc.lastMaxFrontier = maxFrontier

	// Write back the final dense scores of changed users through the
	// positions the scatter recorded — one slice write per changed user,
	// not per recompute — and hand them to the caller next to Changed.
	for _, u := range st.Changed {
		s := &inc.p.slot[u]
		st.writeBack(s, u)
		st.ChangedScores = append(st.ChangedScores, s.p)
	}
}

// LastRecomputed reports how many user-score recomputations the most
// recent AddSeeds performed.
func (inc *Incremental) LastRecomputed() int { return inc.lastRecomputed }

// LastRounds reports the frontier depth (BFS levels entered) of the most
// recent AddSeeds.
func (inc *Incremental) LastRounds() int { return inc.lastRounds }

// LastMaxFrontier reports the widest frontier round (queued users at one
// BFS level) of the most recent AddSeeds — the burst-width signal the
// serving metrics export per propagation.
func (inc *Incremental) LastMaxFrontier() int { return inc.lastMaxFrontier }

// recompute evaluates Definition 4.2 for u against the dense scratch.
func (inc *Incremental) recompute(u ids.UserID) float64 {
	to, w := inc.g.Out(u)
	if len(to) == 0 {
		return 0
	}
	var sum float64
	for i, v := range to {
		if pv := inc.p.get(v); pv != 0 {
			sum += pv * float64(w[i])
		}
	}
	return sum / float64(len(to))
}

func (inc *Incremental) enqueueInfluenced(v ids.UserID) {
	from, _ := inc.g.In(v)
	for _, u := range from {
		if inc.seed.has(u) || inc.inQ.has(u) {
			continue
		}
		inc.inQ.add(u)
		inc.queue = append(inc.queue, u)
	}
}
