package simgraph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/propagation"
	"repro/internal/recsys"
	"repro/internal/wgraph"
)

// RecommenderConfig tunes the end-to-end SimGraph recommender.
type RecommenderConfig struct {
	// Graph controls similarity-graph construction.
	Graph Config
	// Prop controls the propagation engine.
	Prop propagation.Config
	// Postpone enables the batched propagation scheduler (§5.4). With
	// postponement off, every observed retweet propagates immediately
	// (incrementally from the new sharer).
	Postpone bool
	// PostponeMin/PostponeMax bound the adaptive time frame δ.
	PostponeMin, PostponeMax ids.Timestamp
	// DrainWorkers bounds the worker pool that propagates due postponed
	// batches in parallel (distinct tweets have independent state, so a
	// burst of expiring frames fans out across cores). <= 0 picks
	// min(GOMAXPROCS, 8); 1 forces a serial drain.
	DrainWorkers int
	// MaxAge evicts per-tweet propagation state once the tweet exceeds
	// this age — §3.1.2: scores need not be computed after 72 h. An
	// evicted tweet also leaves the candidate pools of every user its
	// propagation touched, so it must not be shorter than the context's
	// MaxAge, the horizon the pool serves against (the Engine passes the
	// same value to both).
	MaxAge ids.Timestamp
	// Metrics is the instrument registry the recommender reports into
	// (see the rec/* names resolved in attach). Nil leaves the recommender
	// uninstrumented; the Engine passes its own registry, which also makes
	// the counters survive the recommender swap a RefreshGraph performs.
	Metrics *metrics.Registry
	// OnChanged, when non-nil, is called after every state change that can
	// alter some user's recommendation list, with the users affected: the
	// sharer of each observed retweet (their pool loses the shared tweet)
	// and every user whose propagated score moved (TweetState.Changed).
	// The callback runs outside all recommender locks but possibly on
	// drain-worker goroutines and concurrently with itself; it must be
	// fast and safe for concurrent use. Serving layers hang cache
	// invalidation here.
	OnChanged func(users []ids.UserID)
}

// DefaultRecommenderConfig returns the experiment configuration:
// dynamic threshold, immediate incremental propagation.
func DefaultRecommenderConfig() RecommenderConfig {
	prop := propagation.DefaultConfig()
	prop.Threshold = propagation.NewDynamicThreshold()
	return RecommenderConfig{
		Graph:       DefaultConfig(),
		Prop:        prop,
		Postpone:    false,
		PostponeMin: 10 * ids.Minute,
		PostponeMax: 4 * ids.Hour,
		MaxAge:      72 * ids.Hour,
	}
}

// Recommender is the paper's system: similarity graph + propagation.
// It implements recsys.Recommender.
//
// Concurrency: after Init, the recommender is safe for concurrent use.
// Recommend calls from many goroutines proceed in parallel (the candidate
// pool is lock-split per user). The streaming state is guarded in layers:
// r.mu covers only the scheduler and the per-tweet bookkeeping maps
// (scheduler pops, state lookup/creation, counts, eviction); each
// resolved propagation takes its TweetState lock under r.mu and runs
// after r.mu is released, on per-worker Incremental scratch, and so
// does the retirement of an evicted tweet's pool entries. Propagations
// of one tweet therefore run in the order they were resolved, while due
// batches for distinct tweets propagate in parallel across a bounded
// worker pool. Init/InitWithGraph must still happen-before any
// concurrent calls.
type Recommender struct {
	cfg  RecommenderConfig
	ds   *dataset.Dataset
	sim  *wgraph.Graph
	pool *recsys.Pool

	// mu guards the scheduler and per-tweet bookkeeping: sched, states
	// (the map, not the TweetState values), counts, and the eviction
	// queue. It is NOT held while propagating.
	mu    sync.Mutex
	sched *propagation.Scheduler
	// dueBuf is the reusable scheduler-pop buffer; guarded by mu.
	dueBuf []propagation.Batch

	// incs pools per-worker incremental propagators (epoch-stamped dense
	// scratch is expensive to allocate per drain).
	incs         *sync.Pool
	drainWorkers int

	// Per-tweet propagation state with lifetime eviction.
	states map[ids.TweetID]*tweetState
	counts map[ids.TweetID]int
	// evictQueue holds tweets in first-seen order for cheap age eviction.
	evictQueue []ids.TweetID
	evictHead  int

	// Instruments, resolved from the config registry in attach. All are
	// lock-free; the propagation-path ones are bumped outside r.mu, the
	// gauge updates happen under it (where the guarded value changes).
	mPropagations *metrics.Counter   // AddSeeds calls (immediate + drained)
	mRecomputes   *metrics.Counter   // user-score recomputations
	mRounds       *metrics.Counter   // cumulative frontier depth
	mFrontier     *metrics.Histogram // widest frontier round per propagation
	mDrains       *metrics.Counter   // drains that flushed ≥ 1 batch
	mBatches      *metrics.Counter   // postponed batches propagated
	mDrainWall    *metrics.Histogram // wall ns per drain
	mBatchSize    *metrics.Histogram // batches per drain
	mEvictions    *metrics.Counter   // per-tweet states aged out
	mStates       *metrics.Gauge     // live per-tweet propagation states
	mPending      *metrics.Gauge     // scheduler pending-batch depth
}

// tweetState is one tweet's propagation state plus the tweet, which
// propagation and retirement name in their pool calls.
type tweetState struct {
	propagation.TweetState
	tweet ids.TweetID
	// newSeeds holds the sharers the resolved propagation adds, written by
	// resolveLocked and read by propagate under the state lock, so a
	// share reuses the state's buffer instead of allocating one.
	newSeeds []ids.UserID
}

// NewRecommender returns an untrained SimGraph recommender.
func NewRecommender(cfg RecommenderConfig) *Recommender {
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = 72 * ids.Hour
	}
	return &Recommender{cfg: cfg}
}

// Name implements recsys.Recommender.
func (r *Recommender) Name() string { return "SimGraph" }

// Graph exposes the built similarity graph (after Init).
func (r *Recommender) Graph() *wgraph.Graph { return r.sim }

// Init builds the similarity graph from the training profiles.
func (r *Recommender) Init(ctx *recsys.Context) error {
	r.ds = ctx.Dataset
	r.sim = Build(ctx.Dataset.Graph, ctx.Store, r.cfg.Graph)
	r.attach(ctx)
	return nil
}

// InitWithGraph installs a pre-built similarity graph (used by the
// update-strategy experiment, which builds variants outside Init).
func (r *Recommender) InitWithGraph(ctx *recsys.Context, g *wgraph.Graph) {
	r.ds = ctx.Dataset
	r.sim = g
	r.attach(ctx)
}

func (r *Recommender) attach(ctx *recsys.Context) {
	reg := r.cfg.Metrics
	r.mPropagations = reg.Counter("rec/propagations")
	r.mRecomputes = reg.Counter("rec/recomputations")
	r.mRounds = reg.Counter("rec/rounds")
	r.mFrontier = reg.Histogram("rec/frontier_width")
	r.mDrains = reg.Counter("rec/drains")
	r.mBatches = reg.Counter("rec/drain/batches")
	r.mDrainWall = reg.Histogram("rec/drain/wall_ns")
	r.mBatchSize = reg.Histogram("rec/drain/batch_size")
	r.mEvictions = reg.Counter("rec/evictions")
	r.mStates = reg.Gauge("rec/states")
	r.mPending = reg.Gauge("rec/sched/pending")
	r.mStates.Set(0)
	r.mPending.Set(0)

	r.incs = &sync.Pool{}
	r.drainWorkers = r.cfg.DrainWorkers
	if r.drainWorkers <= 0 {
		r.drainWorkers = runtime.GOMAXPROCS(0)
		if r.drainWorkers > 8 {
			r.drainWorkers = 8
		}
	}
	r.pool = recsys.NewPool(ctx.Tracked, func(t ids.TweetID) ids.Timestamp {
		return r.ds.Tweets[t].Time
	}, ctx.MaxAge)
	r.states = make(map[ids.TweetID]*tweetState)
	r.counts = make(map[ids.TweetID]int)
	r.evictQueue = nil
	r.evictHead = 0
	if r.cfg.Postpone {
		r.sched = propagation.NewScheduler(r.cfg.PostponeMin, r.cfg.PostponeMax, 12)
	}
}

// getInc checks a per-worker incremental propagator out of the pool.
func (r *Recommender) getInc() *propagation.Incremental {
	if inc, ok := r.incs.Get().(*propagation.Incremental); ok {
		return inc
	}
	return propagation.NewIncremental(r.sim, r.cfg.Prop)
}

func (r *Recommender) putInc(inc *propagation.Incremental) { r.incs.Put(inc) }

// Observe feeds one retweet from the test stream. Propagation runs
// incrementally from the new sharer, immediately or on the postponed
// schedule. It is Sequence and Propagate back to back; a caller that
// orders writes under its own lock calls the two halves itself.
func (r *Recommender) Observe(a dataset.Action) {
	r.Propagate(r.Sequence(a))
}

// Pending is the unordered half of one observation: the propagations
// its ordered half resolved, each still holding its tweet's state lock.
// Pass it to Propagate exactly once, on any goroutine.
type Pending struct {
	task  drainTask   // immediate mode; task.st is nil when nothing propagates
	tasks []drainTask // postponed mode: one task per batch the observation made due
}

// Sequence is the ordered half of Observe: it records the share in the
// pool, counts it, evicts and retires expired states, and resolves what
// must propagate, locking each resolved tweet's state before returning.
// A caller that runs Sequence in log order under its own lock and
// Propagate after releasing it therefore still propagates writes to one
// tweet in log order, while writes to distinct tweets propagate in
// parallel.
func (r *Recommender) Sequence(a dataset.Action) Pending {
	r.pool.MarkRetweeted(a.User, a.Tweet)
	if r.cfg.OnChanged != nil {
		// The sharer's own list changed even if the propagation below is
		// postponed or stale-dropped: MarkRetweeted just removed the tweet
		// from their candidates.
		r.cfg.OnChanged([]ids.UserID{a.User})
	}
	if a.Time-r.ds.Tweets[a.Tweet].Time > r.cfg.MaxAge {
		// The tweet is past the freshness horizon: its propagation state
		// was (or would immediately be) evicted, and recreating it would
		// append the old tweet to the back of evictQueue, breaking the
		// publication-ordered prefix scan that eviction relies on. The
		// share is still recorded in the pool above so the tweet is never
		// recommended back; the propagation itself is dropped.
		return Pending{}
	}

	var p Pending
	r.mu.Lock()
	if _, seen := r.counts[a.Tweet]; !seen {
		// First observation enters the tweet into the eviction queue —
		// keyed on counts, not states, so postponed batches that never
		// propagate still have their bookkeeping reclaimed.
		r.evictQueue = append(r.evictQueue, a.Tweet)
	}
	r.counts[a.Tweet]++
	evicted := r.evictExpired(a.Time)
	if r.sched == nil {
		p.task, _ = r.resolveLocked(a.Tweet, []ids.UserID{a.User}, a.Time)
	} else {
		r.sched.Observe(a.Tweet, a.User, a.Time, r.counts[a.Tweet])
		p.tasks = r.popDueLocked(a.Time)
		r.mPending.Set(int64(r.sched.Pending()))
	}
	r.mu.Unlock()
	r.retire(evicted)
	return p
}

// Propagate is the unordered half of Observe: it runs the propagations
// Sequence resolved and releases their state locks.
func (r *Recommender) Propagate(p Pending) {
	if p.task.st != nil {
		inc := r.getInc()
		r.propagate(inc, p.task)
		r.putInc(inc)
	}
	r.runDrain(p.tasks)
}

// drainTask is one resolved propagation unit: a tweet's state, which
// holds the new sharers in newSeeds, plus the popularity snapshot that
// drives the threshold.
type drainTask struct {
	st         *tweetState
	popularity int
}

// resolveLocked turns a flushed batch (or an immediate share) into a
// propagation task, creating per-tweet state on first touch, and locks
// the task's state. Callers hold r.mu; the returned task is propagated,
// which unlocks the state, after releasing it. Taking the state lock
// under r.mu orders the task before any later retirement of its state:
// eviction removes the state from r.states under r.mu, and retire then
// waits on the same lock.
func (r *Recommender) resolveLocked(t ids.TweetID, users []ids.UserID, now ids.Timestamp) (drainTask, bool) {
	st := r.states[t]
	fresh := st == nil
	if fresh {
		if now-r.ds.Tweets[t].Time > r.cfg.MaxAge {
			// Evicted (or never fresh) by the time the batch drained:
			// never resurrect expired per-tweet state.
			return drainTask{}, false
		}
		st = &tweetState{tweet: t}
		r.states[t] = st
		r.mStates.Set(int64(len(r.states)))
	}
	st.Lock()
	st.newSeeds = st.newSeeds[:0]
	// The author is an implicit sharer of their own post — unless
	// already among the sharers (an author retweeting their own thread),
	// which would seed the first propagation twice.
	if author := r.ds.Tweets[t].Author; fresh && !slices.Contains(users, author) {
		st.newSeeds = append(st.newSeeds, author)
	}
	st.newSeeds = append(st.newSeeds, users...)
	return drainTask{st: st, popularity: r.counts[t]}, true
}

// popDueLocked pops every due batch and resolves it into tasks, each
// holding its state lock (the scheduler keeps one batch per tweet, so
// no state is locked twice). Callers hold r.mu.
func (r *Recommender) popDueLocked(now ids.Timestamp) []drainTask {
	r.dueBuf = r.sched.DueAppend(now, r.dueBuf[:0])
	if len(r.dueBuf) == 0 {
		return nil
	}
	tasks := make([]drainTask, 0, len(r.dueBuf))
	for _, b := range r.dueBuf {
		if task, ok := r.resolveLocked(b.Tweet, b.Users, now); ok {
			tasks = append(tasks, task)
		}
	}
	return tasks
}

// runDrain propagates the resolved tasks, fanning out across the bounded
// worker pool when more than one tweet is due. Per-tweet state is
// independent (each task holds its own TweetState lock) and pool bumps
// are lock-split per user, so workers never share mutable state.
func (r *Recommender) runDrain(tasks []drainTask) {
	if len(tasks) == 0 {
		return
	}
	start := time.Now()
	workers := r.drainWorkers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	r.mBatchSize.Observe(int64(len(tasks)))
	if workers <= 1 {
		inc := r.getInc()
		for _, task := range tasks {
			r.propagate(inc, task)
		}
		r.putInc(inc)
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				inc := r.getInc()
				defer r.putInc(inc)
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					r.propagate(inc, tasks[i])
				}
			}()
		}
		wg.Wait()
	}
	r.mDrains.Inc()
	r.mBatches.Add(uint64(len(tasks)))
	r.mDrainWall.ObserveDuration(time.Since(start))
}

// propagate runs one task under the state lock resolveLocked took,
// refreshes pooled scores for the users whose probability changed, and
// unlocks. Lock order is TweetState -> pool slot; r.mu is never held
// here. The OnChanged callback fires after the state lock is released —
// the affected users are copied out first, because st.Changed is
// scratch the next AddSeeds overwrites.
func (r *Recommender) propagate(inc *propagation.Incremental, task drainTask) {
	st := task.st
	var changed []ids.UserID
	inc.AddSeeds(&st.TweetState, st.newSeeds, task.popularity)
	for i, u := range st.Changed {
		r.pool.Bump(u, st.tweet, st.ChangedScores[i])
	}
	if r.cfg.OnChanged != nil && len(st.Changed) > 0 {
		changed = append(changed, st.Changed...)
	}
	st.Unlock()
	if len(changed) > 0 {
		r.cfg.OnChanged(changed)
	}
	r.mPropagations.Inc()
	r.mRecomputes.Add(uint64(inc.LastRecomputed()))
	r.mRounds.Add(uint64(inc.LastRounds()))
	r.mFrontier.Observe(int64(inc.LastMaxFrontier()))
}

// evictExpired drops propagation state of tweets past the freshness
// horizon and returns the dropped states, whose pool entries the caller
// retires after releasing r.mu. Tweets enter evictQueue in
// first-observation order, which is publication-correlated, so a prefix
// scan suffices (stale observations are dropped in Observe, preserving
// the ordering invariant). Callers hold r.mu.
func (r *Recommender) evictExpired(now ids.Timestamp) []*tweetState {
	var dropped []*tweetState
	evicted := 0
	for r.evictHead < len(r.evictQueue) {
		t := r.evictQueue[r.evictHead]
		if now-r.ds.Tweets[t].Time <= r.cfg.MaxAge {
			break
		}
		if st := r.states[t]; st != nil {
			dropped = append(dropped, st)
		}
		delete(r.states, t)
		delete(r.counts, t)
		if r.sched != nil {
			r.sched.Drop(t)
		}
		r.evictHead++
		evicted++
	}
	if evicted > 0 {
		r.mEvictions.Add(uint64(evicted))
		r.mStates.Set(int64(len(r.states)))
		if r.sched != nil {
			r.mPending.Set(int64(r.sched.Pending()))
		}
	}
	// Compact occasionally so the queue does not grow without bound.
	if r.evictHead > 4096 && r.evictHead*2 > len(r.evictQueue) {
		r.evictQueue = append([]ids.TweetID(nil), r.evictQueue[r.evictHead:]...)
		r.evictHead = 0
	}
	return dropped
}

// retire removes each evicted tweet from the pools of every user its
// propagation touched — the only users a Bump for it ever reached, and
// its tracked sharers, whose shared marks go too. The tweet is past the
// horizon the pool serves against, so no read at a later time sees a
// difference; the point is that write-only traffic gives the memory
// back. Runs outside r.mu, under each state's lock: the order is
// TweetState -> pool slot, as in propagate. Every task resolved on the
// state locked it before the eviction, so taking the lock here waits
// for the last propagation and nothing bumps the tweet back afterwards.
func (r *Recommender) retire(states []*tweetState) {
	for _, st := range states {
		st.Lock()
		for _, u := range st.Users() {
			r.pool.Retire(u, st.tweet)
		}
		st.Unlock()
	}
}

// Recommend implements recsys.Recommender. Safe for concurrent callers:
// with postponement off it touches only the lock-split pool; with
// postponement on, r.mu is taken only for the scheduler pop and the
// flushed batches propagate on the worker pool before ranking.
func (r *Recommender) Recommend(u ids.UserID, k int, now ids.Timestamp) []recsys.ScoredTweet {
	if r.sched != nil {
		r.mu.Lock()
		tasks := r.popDueLocked(now)
		r.mPending.Set(int64(r.sched.Pending()))
		r.mu.Unlock()
		r.runDrain(tasks)
	}
	return r.pool.TopK(u, k, now)
}

var _ recsys.Recommender = (*Recommender)(nil)
