package propagation

import (
	"math"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// This file freezes the pre-kernel propagation implementations. They are
// correct but pay avoidable per-call costs — RefPropagator resets and
// sweeps O(|V|) dense scratch on every Propagate, RefIncremental probes
// a map-based tweet state (RefTweetState) once per edge and allocates a
// changed-set map per call. The epoch-stamped kernels in propagation.go and
// incremental.go replace them on the production path; these stay as the
// differential-test oracles and the benchmark baselines that
// BENCH_propagation.json measures the kernels against, exactly as
// pairwise similarity.Sim anchors SimBatch.

// RefPropagator is the frozen dense-reset frontier propagator. Like
// Propagator it owns reusable scratch and is not safe for concurrent use.
type RefPropagator struct {
	cfg   Config
	g     wgraph.View
	p     []float64
	seed  []bool
	inQ   []bool
	queue []ids.UserID
}

// NewRefPropagator returns the reference propagator over g.
func NewRefPropagator(g wgraph.View, cfg Config) *RefPropagator {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	n := g.NumNodes()
	return &RefPropagator{
		cfg:  cfg,
		g:    g,
		p:    make([]float64, n),
		seed: make([]bool, n),
		inQ:  make([]bool, n),
	}
}

func (pr *RefPropagator) ensureScratch(n int) {
	if n <= len(pr.p) {
		return
	}
	pr.p = append(pr.p, make([]float64, n-len(pr.p))...)
	pr.seed = append(pr.seed, make([]bool, n-len(pr.seed))...)
	pr.inQ = append(pr.inQ, make([]bool, n-len(pr.inQ))...)
}

// Propagate is the pre-kernel implementation: O(n) reset, frontier loop,
// O(n) result sweep.
func (pr *RefPropagator) Propagate(seeds []ids.UserID, popularity int) Result {
	cutoff := pr.cfg.Threshold.Cutoff(popularity)
	n := pr.g.NumNodes()
	pr.ensureScratch(n)

	for i := 0; i < n; i++ {
		pr.p[i] = 0
		pr.seed[i] = false
		pr.inQ[i] = false
	}
	pr.queue = pr.queue[:0]

	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		pr.p[s] = 1
		pr.seed[s] = true
	}
	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		pr.enqueueInfluenced(s)
	}

	iters := 0
	for len(pr.queue) > 0 && iters < pr.cfg.MaxIterations {
		iters++
		round := pr.queue
		pr.queue = nil
		for _, u := range round {
			pr.inQ[u] = false
		}
		for _, u := range round {
			if pr.seed[u] {
				continue
			}
			to, w := pr.g.Out(u)
			var nv float64
			if len(to) > 0 {
				var sum float64
				for i, v := range to {
					if pv := pr.p[v]; pv != 0 {
						sum += pv * float64(w[i])
					}
				}
				nv = sum / float64(len(to))
			}
			delta := math.Abs(nv - pr.p[u])
			pr.p[u] = nv
			if delta >= cutoff {
				pr.enqueueInfluenced(u)
			}
		}
	}

	var res Result
	for u := 0; u < n; u++ {
		if pr.seed[u] || pr.p[u] <= pr.cfg.MinScore {
			continue
		}
		res.Users = append(res.Users, ids.UserID(u))
		res.Scores = append(res.Scores, pr.p[u])
	}
	return res
}

func (pr *RefPropagator) enqueueInfluenced(v ids.UserID) {
	from, _ := pr.g.In(v)
	for _, u := range from {
		if pr.seed[u] || pr.inQ[u] {
			continue
		}
		pr.inQ[u] = true
		pr.queue = append(pr.queue, u)
	}
}

// RefTweetState is the frozen map layout of the per-tweet propagation
// state, which RefIncremental runs on: P holds every touched user's
// score (seeds at 1), Seeds the pinned seed set.
type RefTweetState struct {
	P       map[ids.UserID]float64
	Seeds   map[ids.UserID]struct{}
	Changed []ids.UserID // users whose score changed in the last call
}

// NewRefTweetState returns empty reference per-tweet state.
func NewRefTweetState() *RefTweetState {
	return &RefTweetState{
		P:     make(map[ids.UserID]float64),
		Seeds: make(map[ids.UserID]struct{}),
	}
}

// RefIncremental is the frozen map-probing incremental propagator: the
// innermost recompute loop looks every influencer up in the state's P
// map, and each AddSeeds call allocates a fresh changed-set map.
type RefIncremental struct {
	cfg   Config
	g     wgraph.View
	inQ   map[ids.UserID]struct{}
	queue []ids.UserID
}

// NewRefIncremental returns the reference incremental propagator over g.
func NewRefIncremental(g wgraph.View, cfg Config) *RefIncremental {
	if cfg.Threshold == nil {
		cfg.Threshold = StaticThreshold(1e-6)
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 200
	}
	return &RefIncremental{
		cfg: cfg,
		g:   g,
		inQ: make(map[ids.UserID]struct{}),
	}
}

// AddSeeds is the pre-kernel implementation of Incremental.AddSeeds. It
// reaches the same fixpoint; only st.Changed's order differs (map
// iteration order rather than discovery order).
func (inc *RefIncremental) AddSeeds(st *RefTweetState, seeds []ids.UserID, popularity int) {
	cutoff := inc.cfg.Threshold.Cutoff(popularity)
	st.Changed = st.Changed[:0]
	clear(inc.inQ)
	inc.queue = inc.queue[:0]

	n := inc.g.NumNodes()
	for _, s := range seeds {
		if int(s) >= n {
			continue
		}
		if _, dup := st.Seeds[s]; dup {
			continue
		}
		st.Seeds[s] = struct{}{}
		st.P[s] = 1
		inc.enqueueInfluenced(st, s)
	}

	budget := inc.cfg.MaxIterations * 4096
	changed := make(map[ids.UserID]struct{})
	for head := 0; head < len(inc.queue) && budget > 0; head++ {
		u := inc.queue[head]
		delete(inc.inQ, u)
		if _, isSeed := st.Seeds[u]; isSeed {
			continue
		}
		budget--
		nv := inc.recompute(st, u)
		old := st.P[u]
		delta := math.Abs(nv - old)
		if nv == 0 && old == 0 {
			continue
		}
		st.P[u] = nv
		changed[u] = struct{}{}
		if delta >= cutoff {
			inc.enqueueInfluenced(st, u)
		}
	}
	for u := range changed {
		st.Changed = append(st.Changed, u)
	}
}

func (inc *RefIncremental) recompute(st *RefTweetState, u ids.UserID) float64 {
	to, w := inc.g.Out(u)
	if len(to) == 0 {
		return 0
	}
	var sum float64
	for i, v := range to {
		if pv, ok := st.P[v]; ok && pv != 0 {
			sum += pv * float64(w[i])
		}
	}
	return sum / float64(len(to))
}

func (inc *RefIncremental) enqueueInfluenced(st *RefTweetState, v ids.UserID) {
	from, _ := inc.g.In(v)
	for _, u := range from {
		if _, isSeed := st.Seeds[u]; isSeed {
			continue
		}
		if _, queued := inc.inQ[u]; queued {
			continue
		}
		inc.inQ[u] = struct{}{}
		inc.queue = append(inc.queue, u)
	}
}
