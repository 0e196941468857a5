package repro

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bubbles"
	"repro/internal/community"

	"repro/internal/dataset"
	"repro/internal/durable"
	"repro/internal/ids"
	"repro/internal/metrics"
	"repro/internal/propagation"
	"repro/internal/recsys"
	"repro/internal/simgraph"
	"repro/internal/similarity"
	"repro/internal/wgraph"
)

// Recommendation is one ranked suggestion: a tweet and the predicted
// probability that the user would share it.
type Recommendation struct {
	Tweet TweetID
	Score float64
}

// UpdateStrategy selects how RefreshGraph maintains the similarity graph
// (§6.3 of the paper).
type UpdateStrategy = simgraph.UpdateStrategy

// Update strategies, re-exported from the engine package.
const (
	UpdateFromScratch = simgraph.FromScratch
	UpdateKeepOld     = simgraph.KeepOld
	UpdateCrossfold   = simgraph.Crossfold
	UpdateWeights     = simgraph.UpdateWeights
	UpdateIncremental = simgraph.Incremental
)

// ParseUpdateStrategy resolves a flag spelling ("from-scratch",
// "keep-old", "crossfold", "update-weights", "incremental") to a
// strategy; re-exported from internal/simgraph for tooling.
var ParseUpdateStrategy = simgraph.ParseUpdateStrategy

// EngineOptions configures an Engine. The zero value is NOT valid; start
// from DefaultEngineOptions.
type EngineOptions struct {
	// Train is the action log the profiles and similarity graph are built
	// from. Nil uses the dataset's whole log.
	Train []Action
	// Tau is the similarity threshold τ for graph edges.
	Tau float64
	// Hops is the exploration radius (paper: 2).
	Hops int
	// MaxNeighborhood caps the per-user 2-hop exploration (0 = unlimited).
	MaxNeighborhood int
	// DynamicThreshold enables the popularity-driven propagation cutoff
	// γ(t); otherwise StaticBeta is used.
	DynamicThreshold bool
	// StaticBeta is the fixed propagation threshold β.
	StaticBeta float64
	// Postpone batches propagations on the adaptive time-frame schedule.
	Postpone bool
	// DrainWorkers bounds the worker pool that propagates due postponed
	// batches in parallel. <= 0 picks min(GOMAXPROCS, 8); 1 forces a
	// serial drain. Only meaningful with Postpone.
	DrainWorkers int
	// MaxAge is the recommendation freshness horizon (paper: 72 h).
	MaxAge Timestamp
	// TrackUsers limits recommendation state to these users; nil tracks
	// everyone (costs one candidate-pool slot per user).
	TrackUsers []UserID
	// TopicAlpha blends topic-engagement similarity into Definition 3.1
	// (the paper's §7 "topic tweets" future work): 0 disables, 1 uses
	// topics only. Helps small users whose profiles rarely overlap.
	TopicAlpha float64
	// ColdStartFallback serves users absent from the similarity graph by
	// aggregating their followees' recommendations — the GraphJet-style
	// neighbourhood workaround the paper sketches in §4.1. With
	// ClusterPrune enabled the aggregation is community-aware: each
	// followee's vote is weighted by its cluster overlap with the cold
	// user (see coldStartRecommend).
	ColdStartFallback bool
	// ClusterPrune enables sparse community embeddings (internal/
	// community): after every graph build the engine detects communities
	// on the similarity graph via synchronous label propagation, and the
	// next build prunes each user's candidate neighbourhood by cluster
	// overlap before the SimBatch kernel scores it. The cold-start
	// fallback becomes overlap-weighted at the same time. With
	// PruneMinOverlap == 0 pruning is provably lossless (bit-identical
	// graphs, kernel work still skipped); see simgraph.Config.
	ClusterPrune bool
	// PruneMinOverlap is the lossy prune threshold: candidates whose
	// cluster overlap with the source falls below it are dropped before
	// scoring. 0 keeps pruning exact. Quality cost at a given setting is
	// measured by internal/eval (PruneQualityDelta) and the benchjson
	// community suite.
	PruneMinOverlap float64
	// WAL, when non-nil, receives every action Observe accepts — before
	// the engine state mutates, inside the exclusive lock, so the log
	// order equals the apply order (WAL-before-apply). OpenEngine installs
	// the durable WAL here; leave nil for a purely in-memory engine.
	WAL ActionLog
	// RefreshEvery, when positive, starts a background refresher (like
	// the checkpointer) that runs RefreshGraph on this period with
	// RefreshStrategy, so the similarity graph tracks the stream without
	// any caller-driven refresh loop. A pass whose strategy is
	// UpdateIncremental is skipped outright when no profile changed since
	// the previous refresh (the dirty set is empty). Stop it with Close.
	RefreshEvery time.Duration
	// RefreshStrategy is the maintenance strategy the background
	// refresher uses. The zero value is UpdateFromScratch; deployments
	// chasing the write-stall bound want UpdateIncremental.
	RefreshStrategy UpdateStrategy
}

// DefaultEngineOptions returns the configuration used in the paper's
// experiments.
func DefaultEngineOptions() EngineOptions {
	return EngineOptions{
		Tau:               simgraph.DefaultConfig().Tau,
		Hops:              2,
		MaxNeighborhood:   simgraph.DefaultConfig().MaxNeighborhood,
		DynamicThreshold:  true,
		StaticBeta:        1e-6,
		MaxAge:            72 * Hour,
		ColdStartFallback: true,
	}
}

// Engine is the public entry point to the paper's system: it owns the
// retweet profiles, the similarity graph, and the propagation
// recommender, and keeps all three consistent as retweets stream in.
//
// Engine is safe for concurrent use. The read path — Recommend,
// RecommendDiverse, Similarity, PropagateScores, GraphCharacteristics,
// ColdStartUsers, DetectBubbles, ObservedActions — may be called from any
// number of goroutines simultaneously; reads scale with GOMAXPROCS
// because the candidate pools are lock-split per user and the similarity
// graph is immutable between refreshes. Observe is a writer: it takes the
// exclusive lock for its ordered step only (log, store, bookkeeping) and
// propagates after releasing it, so a streamed retweet briefly quiesces
// readers but can safely interleave with them. RefreshGraph builds the
// new graph under the read lock and takes the exclusive lock only for
// the swap, so a rebuild stalls readers for the swap alone, not the
// construction.
type Engine struct {
	// mu is the facade lock: read methods take RLock, Observe takes Lock
	// for each action's ordered step (it mutates the profile store and the
	// observed log, and locks the tweet's propagation state in log order)
	// and propagates after Unlock. RefreshGraph builds read-locked —
	// excluding Observe, so the store is stable — then swaps the
	// recommender under a brief exclusive section.
	mu    sync.RWMutex
	ds    *Dataset
	opts  EngineOptions
	store *similarity.Store
	rec   *simgraph.Recommender
	ctx   *recsys.Context
	// observed accumulates the streamed actions so RefreshGraph can
	// rebuild pools; RefreshGraphStats compacts it to the suffix still
	// within the freshness horizon (see the replay bound there).
	observed []Action
	// observedNewest is the largest action timestamp streamed so far; it
	// anchors the replay horizon. Guarded by mu.
	observedNewest Timestamp
	// props pools per-worker Propagator scratch for PropagateScores; the
	// dense buffers are expensive to allocate per call and each pooled
	// propagator is rebound to the current graph on checkout.
	props sync.Pool

	// clusters is the current community embedding (nil until the first
	// detection, or always when ClusterPrune is off). Atomic because the
	// readers span lock states: recommenderConfig is called under the
	// read lock, the exclusive lock, and with no lock at all (refresh
	// phase 2), and detection itself runs unlocked over the immutable
	// installed graph.
	clusters atomic.Pointer[community.Embeddings]

	// onChanged is the score-change hook (SetOnScoresChanged): serving
	// layers hang cache invalidation here. Atomic because it is installed
	// after construction and read on every Observe/propagation, possibly
	// under the exclusive lock or on drain workers. The indirection
	// through fireScoresChanged means recommenders built later (refresh
	// swaps) keep firing the currently installed hook.
	onChanged atomic.Pointer[func(users []UserID)]

	// wal is the durability hook from EngineOptions.WAL: the write path
	// (observe) appends each accepted action before applying it (under
	// the exclusive lock, so log order equals apply order). Nil for
	// in-memory engines. walBuf is wal's bufferedLog refinement when it
	// has one: the write path then appends under the lock but runs the
	// policy's durability wait (SyncAlways fsync) once per call, after
	// releasing it.
	wal    ActionLog
	walBuf bufferedLog
	// Durability plumbing installed by OpenEngine: the owned WAL (closed
	// by Close — distinct from wal, which may be caller-supplied), the
	// checkpoint directory and retention for the background checkpointer,
	// and its lifecycle channels. ckptMu serializes Checkpoint calls so a
	// manual checkpoint and the background one never interleave sequence
	// numbers or WAL truncation.
	dwal      *durable.WAL
	ckptDir   string
	keepCkpts int
	ckptMu    sync.Mutex
	ckptStop  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
	// retainFloor, when installed (SetWALRetainFloor), lower-bounds WAL
	// truncation below what checkpoint retention alone would allow — the
	// replication leader pins segments its registered followers have not
	// acknowledged yet. Guarded by ckptMu (Checkpoint holds it).
	retainFloor func() (uint64, bool)

	// refreshMu serializes RefreshGraphStats calls: the replay phase runs
	// without the engine lock against a snapshot of the observed log, and
	// a concurrent refresh's compaction would mutate that snapshot's
	// backing array. Concurrent refreshes were always wasted work; now
	// they queue. refreshStop/refreshDone are the background refresher's
	// lifecycle (EngineOptions.RefreshEvery), stopped by Close.
	refreshMu   sync.Mutex
	refreshStop chan struct{}
	refreshDone chan struct{}

	// metrics is the engine-wide instrument registry: the engine/* series
	// resolved below, the recommender's rec/* series (shared through
	// RecommenderConfig.Metrics so counters survive refresh swaps), and
	// the similarity store's similarity/* series. Exposed by Metrics()
	// and MetricsRegistry().
	metrics       *metrics.Registry
	mRecommendLat *metrics.Histogram // engine/recommend/latency_ns
	mObserveLat   *metrics.Histogram // engine/observe/latency_ns (one write call, durability wait included)
	mLockWait     *metrics.Histogram // stage/observe/lock_wait_ns (per action: wait for the exclusive lock)
	mLocked       *metrics.Histogram // stage/observe/locked_ns (per action: the ordered step under it)
	mPropagate    *metrics.Histogram // stage/observe/propagate_ns (per action: the unordered step after it)
	mRefreshBuild *metrics.Histogram // engine/refresh/build_ns (graph construction)
	mRefreshLock  *metrics.Histogram // engine/refresh/lock_hold_ns (exclusive delta-replay+swap)
	mWriteStall   *metrics.Histogram // engine/refresh/write_stall_ns (read-locked phase; writers excluded)
	mDirtyUsers   *metrics.Counter   // engine/refresh/dirty_users (incremental re-scores)
	mEdgesAdded   *metrics.Counter   // engine/refresh/edges_added
	mEdgesRemoved *metrics.Counter   // engine/refresh/edges_removed
	mEdgesReweigh *metrics.Counter   // engine/refresh/edges_reweighted
	mRefreshSkips *metrics.Counter   // engine/refresh/skipped_clean (background passes with no dirty users)
	mRecommends   *metrics.Counter   // engine/recommend/requests
	mColdStarts   *metrics.Counter   // engine/recommend/cold_start_fallbacks
	mObserves     *metrics.Counter   // engine/observe/actions
	mRefreshes    *metrics.Counter   // engine/refresh/count
	mReplayed     *metrics.Counter   // engine/refresh/replayed_actions
	mCompacted    *metrics.Counter   // engine/refresh/compacted_actions
	mInvalidSeeds *metrics.Counter   // engine/propagate/invalid_seeds
	mObservedLen  *metrics.Gauge     // engine/observed_log/len
	mWALDegraded  *metrics.Counter   // engine/wal/degraded_appends
	mBatches      *metrics.Counter   // engine/observe/batches
	mBatchSize    *metrics.Histogram // engine/observe/batch_size (actions per batch)
	mDetects      *metrics.Counter   // engine/community/detections
	mDetectNs     *metrics.Histogram // engine/community/detect_ns
	mClusters     *metrics.Gauge     // engine/community/clusters
}

// NewEngine trains an engine on the dataset: builds profiles from the
// training log and constructs the similarity graph.
func NewEngine(ds *Dataset, opts EngineOptions) (*Engine, error) {
	e, err := newEngineCore(ds, opts)
	if err != nil {
		return nil, err
	}
	if err := e.rec.Init(e.ctx); err != nil {
		return nil, err
	}
	// The first build necessarily ran unpruned (no previous graph to
	// detect communities on); detecting here arms the pre-filter for
	// every subsequent refresh.
	e.detectClusters(e.rec.Graph())
	e.maybeStartRefresher()
	return e, nil
}

// newEngineCore builds an engine up to — but not including — similarity-
// graph construction: options validation, the metrics registry, the
// profile store, the recommender shell. NewEngine finishes it with
// rec.Init (builds the graph from profiles); recovery finishes it with
// rec.InitWithGraph (installs a checkpointed graph, skipping the build).
func newEngineCore(ds *Dataset, opts EngineOptions) (*Engine, error) {
	if opts.MaxAge <= 0 {
		opts.MaxAge = 72 * Hour
	}
	if opts.Hops <= 0 {
		opts.Hops = 2
	}
	if opts.Tau < 0 || opts.Tau > 1 {
		return nil, fmt.Errorf("repro: Tau %v out of [0,1]", opts.Tau)
	}
	if opts.PruneMinOverlap < 0 || opts.PruneMinOverlap > 1 {
		return nil, fmt.Errorf("repro: PruneMinOverlap %v out of [0,1]", opts.PruneMinOverlap)
	}
	train := opts.Train
	if train == nil {
		train = ds.Actions
	}
	tracked := opts.TrackUsers
	if tracked == nil {
		tracked = make([]UserID, ds.NumUsers())
		for u := range tracked {
			tracked[u] = UserID(u)
		}
	}

	e := &Engine{ds: ds, opts: opts, wal: opts.WAL}
	e.walBuf, _ = e.wal.(bufferedLog)
	e.metrics = metrics.NewRegistry()
	e.mRecommendLat = e.metrics.Histogram("engine/recommend/latency_ns")
	e.mObserveLat = e.metrics.Histogram("engine/observe/latency_ns")
	e.mLockWait = e.metrics.Histogram("stage/observe/lock_wait_ns")
	e.mLocked = e.metrics.Histogram("stage/observe/locked_ns")
	e.mPropagate = e.metrics.Histogram("stage/observe/propagate_ns")
	e.mRefreshBuild = e.metrics.Histogram("engine/refresh/build_ns")
	e.mRefreshLock = e.metrics.Histogram("engine/refresh/lock_hold_ns")
	e.mWriteStall = e.metrics.Histogram("engine/refresh/write_stall_ns")
	e.mDirtyUsers = e.metrics.Counter("engine/refresh/dirty_users")
	e.mEdgesAdded = e.metrics.Counter("engine/refresh/edges_added")
	e.mEdgesRemoved = e.metrics.Counter("engine/refresh/edges_removed")
	e.mEdgesReweigh = e.metrics.Counter("engine/refresh/edges_reweighted")
	e.mRefreshSkips = e.metrics.Counter("engine/refresh/skipped_clean")
	e.mRecommends = e.metrics.Counter("engine/recommend/requests")
	e.mColdStarts = e.metrics.Counter("engine/recommend/cold_start_fallbacks")
	e.mObserves = e.metrics.Counter("engine/observe/actions")
	e.mRefreshes = e.metrics.Counter("engine/refresh/count")
	e.mReplayed = e.metrics.Counter("engine/refresh/replayed_actions")
	e.mCompacted = e.metrics.Counter("engine/refresh/compacted_actions")
	e.mInvalidSeeds = e.metrics.Counter("engine/propagate/invalid_seeds")
	e.mObservedLen = e.metrics.Gauge("engine/observed_log/len")
	e.mWALDegraded = e.metrics.Counter("engine/wal/degraded_appends")
	e.mBatches = e.metrics.Counter("engine/observe/batches")
	e.mBatchSize = e.metrics.Histogram("engine/observe/batch_size")
	e.mDetects = e.metrics.Counter("engine/community/detections")
	e.mDetectNs = e.metrics.Histogram("engine/community/detect_ns")
	e.mClusters = e.metrics.Gauge("engine/community/clusters")
	e.store = similarity.NewStore(ds.NumUsers(), ds.NumTweets(), train)
	e.store.Instrument(
		e.metrics.Counter("similarity/simbatch/batch_calls"),
		e.metrics.Counter("similarity/simbatch/pairwise_fallbacks"),
	)
	e.store.InstrumentPrune(
		e.metrics.Counter("similarity/prune/candidates_in"),
		e.metrics.Counter("similarity/prune/candidates_dropped"),
		e.metrics.Counter("similarity/prune/kernel_calls_saved"),
	)
	if opts.TopicAlpha > 0 {
		e.store.EnableTopics(func(t TweetID) int16 { return ds.Tweets[t].Topic }, opts.TopicAlpha)
	}
	e.ctx = &recsys.Context{
		Dataset: ds,
		Train:   train,
		Store:   e.store,
		Tracked: tracked,
		MaxAge:  opts.MaxAge,
		Seed:    1,
	}
	e.rec = simgraph.NewRecommender(e.recommenderConfig())
	return e, nil
}

func (e *Engine) recommenderConfig() simgraph.RecommenderConfig {
	rcfg := simgraph.DefaultRecommenderConfig()
	rcfg.Graph.Tau = e.opts.Tau
	rcfg.Graph.Hops = e.opts.Hops
	rcfg.Graph.MaxNeighborhood = e.opts.MaxNeighborhood
	if e.opts.DynamicThreshold {
		rcfg.Prop.Threshold = propagation.NewDynamicThreshold()
	} else {
		rcfg.Prop.Threshold = propagation.StaticThreshold(e.opts.StaticBeta)
	}
	rcfg.Graph.ClusterPrune = e.opts.ClusterPrune
	rcfg.Graph.PruneMinOverlap = e.opts.PruneMinOverlap
	rcfg.Graph.Clusters = e.clusters.Load()
	rcfg.Postpone = e.opts.Postpone
	rcfg.DrainWorkers = e.opts.DrainWorkers
	// One freshness horizon: the recommender evicts propagation state
	// (and retires pool entries) at the same age the pool serves to.
	rcfg.MaxAge = e.opts.MaxAge
	rcfg.Metrics = e.metrics
	rcfg.OnChanged = e.fireScoresChanged
	return rcfg
}

// SetOnScoresChanged installs (or, with nil, removes) the score-change
// hook: fn is called with every user whose recommendation list may have
// changed — the sharer of each observed action plus every user whose
// propagated score moved — and with a nil slice when everything may
// have changed at once (a graph refresh swapped the recommender).
//
// fn may be called concurrently with itself, from Observe callers,
// drain workers, or refresh goroutines, sometimes while engine locks
// are held: it must be fast, safe for concurrent use, and must not call
// back into the Engine. Serving layers hang cache invalidation here
// (see internal/server).
func (e *Engine) SetOnScoresChanged(fn func(users []UserID)) {
	if fn == nil {
		e.onChanged.Store(nil)
		return
	}
	e.onChanged.Store(&fn)
}

// fireScoresChanged invokes the installed hook, if any. users == nil
// means "every user" (full invalidation).
func (e *Engine) fireScoresChanged(users []UserID) {
	if fn := e.onChanged.Load(); fn != nil {
		(*fn)(users)
	}
}

// detectClusters re-detects community embeddings on g (which must be
// immutable — an installed or about-to-be-installed similarity graph)
// and publishes them for the candidate pre-filter and the cold-start
// path. No engine lock is needed: graphs never mutate once built and
// the embeddings pointer is atomic. No-op unless ClusterPrune is on.
func (e *Engine) detectClusters(g *wgraph.Graph) {
	if !e.opts.ClusterPrune {
		return
	}
	start := time.Now()
	emb := community.Detect(g, e.ds.Graph, community.DefaultConfig())
	e.clusters.Store(emb)
	e.mDetects.Inc()
	e.mDetectNs.ObserveDuration(time.Since(start))
	e.mClusters.Set(int64(emb.NumClusters()))
}

// Clusters returns the current community embeddings, or nil when
// ClusterPrune is off (or no detection has run yet).
func (e *Engine) Clusters() *community.Embeddings { return e.clusters.Load() }

// Observe streams one retweet into the engine: it updates the user's
// profile, re-propagates the tweet's share probabilities over the
// similarity graph, and refreshes candidate pools. Observe is
// ObserveBatch with a batch of one: the same WAL-then-apply body, with
// no allocation of its own. It is a writer: it excludes concurrent
// readers and writers only for its ordered step — the WAL append, the
// profile-store update and the recommender's bookkeeping. The
// propagation runs after the lock is released, under the tweet's own
// state lock, so concurrent readers may see it half-applied across
// users (never within one user's candidate slot), and concurrent
// writes to other tweets propagate in parallel. The WAL durability wait
// also runs after the lock, so with WALSyncAlways a slow fsync delays
// only this writer.
//
// A nil error means the action was applied (and logged, when a WAL is
// attached). An error wrapping ErrWALRecordLogged means the record
// reached the log but its durability is in doubt — the action WAS
// applied, because recovery may replay the logged record and skipping
// the apply would let live and recovered state diverge. Any other error
// means the action was neither logged nor applied.
func (e *Engine) Observe(u UserID, t TweetID, at Timestamp) error {
	a := [1]Action{{User: u, Tweet: t, Time: at}}
	var errs [1]error
	e.observe(a[:], errs[:])
	return errs[0]
}

// Recommend returns up to k fresh recommendations for u at time now,
// highest predicted share probability first. Safe for any number of
// concurrent callers.
func (e *Engine) Recommend(u UserID, k int, now Timestamp) []Recommendation {
	out, _ := e.RecommendWithColdStart(u, k, now)
	return out
}

// ColdStartRecommend runs the followee-aggregation fallback directly,
// regardless of EngineOptions.ColdStartFallback and of whether u has
// pool candidates of their own, and truncates the aggregate to the k
// best. Safe for concurrent callers.
//
// Routers that partition users across engines must NOT merge these
// truncated lists: a tweet whose global (summed) score belongs in the
// merged top-k can sit below rank k on every single shard and be
// truncated out of all partials before the merge ever sees it. Use
// ColdStartPartial for scatter-gather.
func (e *Engine) ColdStartRecommend(u UserID, k int, now Timestamp) []Recommendation {
	if int(u) >= e.ds.NumUsers() || k <= 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.coldStartRecommend(u, k, now)
}

// ColdStartPartial returns this engine's UNtruncated cold-start
// aggregate for u: every candidate tweet the locally tracked followees
// contribute, averaged over u's full followee count. k bounds each
// followee's contributing recommendation list (it is part of the
// fallback's definition), not the result length, and the result order
// is unspecified — callers rank after merging.
//
// This is the scatter-gather primitive for routers that partition users
// across engines (internal/shard): a cold user's followees may be
// tracked on several engines, and the router reconstructs the global
// fallback by summing the partial aggregates — every engine normalizes
// by the user's full followee count, so partial sums over disjoint
// followee subsets merge exactly — and only then keeping the top k.
// Safe for concurrent callers.
func (e *Engine) ColdStartPartial(u UserID, k int, now Timestamp) []Recommendation {
	if int(u) >= e.ds.NumUsers() || k <= 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.coldStartAggregate(u, k, now)
}

// coldStartRecommend ranks the followee aggregate and keeps the k best.
// Callers hold e.mu (read side suffices).
func (e *Engine) coldStartRecommend(u UserID, k int, now Timestamp) []Recommendation {
	aggregate := e.coldStartAggregate(u, k, now)
	if len(aggregate) == 0 {
		return nil
	}
	top := recsys.NewTopK(k)
	for _, r := range aggregate {
		top.Offer(r.Tweet, r.Score)
	}
	ranked := top.Ranked()
	out := make([]Recommendation, len(ranked))
	for i, r := range ranked {
		out[i] = Recommendation{Tweet: r.Tweet, Score: r.Score}
	}
	return out
}

// coldStartAggregate aggregates the followees' candidate lists without
// truncation, averaging scores so tweets endorsed by several followees
// rank first — and, when community embeddings exist
// (EngineOptions.ClusterPrune), weighting each followee's contribution
// by 1 + its cluster overlap with the cold user, so same-community
// followees dominate the fallback. The followee pools filter the
// followees' own shares, not the cold user's, so the aggregate is
// additionally filtered against the user's observed profile and
// authorship — a cold-start user must never be served a tweet they
// already shared or wrote. Result order is unspecified. Callers hold
// e.mu (read side suffices).
func (e *Engine) coldStartAggregate(u UserID, k int, now Timestamp) []Recommendation {
	followees := e.ds.Graph.Out(u)
	if len(followees) == 0 {
		return nil
	}
	profile := e.store.Profile(u) // sorted ascending; includes streamed shares
	shared := func(t TweetID) bool {
		i := sort.Search(len(profile), func(i int) bool { return profile[i] >= t })
		return i < len(profile) && profile[i] == t
	}
	emb := e.clusters.Load()
	agg := make(map[TweetID]float64)
	for _, v := range followees {
		// Community-aware weighting: a followee sharing the cold user's
		// clusters gets up to a 2x vote (1 + overlap ∈ [1, 2]); with no
		// embeddings every weight is exactly 1 and this is the original
		// popularity aggregation. A truly cold user's own vector comes
		// from the followee-label fill in community.Detect. The weight
		// depends only on (u, v) and this engine's embeddings, so the
		// sharded partial-sum merge contract above is preserved.
		wv := 1.0
		if emb != nil {
			wv += emb.Overlap(u, v)
		}
		for _, r := range e.rec.Recommend(v, k, now) {
			if e.ds.Tweets[r.Tweet].Author == u || shared(r.Tweet) {
				continue
			}
			agg[r.Tweet] += r.Score * wv
		}
	}
	if len(agg) == 0 {
		return nil
	}
	inv := 1 / float64(len(followees))
	out := make([]Recommendation, 0, len(agg))
	for t, sum := range agg {
		out = append(out, Recommendation{Tweet: t, Score: sum * inv})
	}
	return out
}

// PropagateScores runs one propagation for a hypothetical tweet shared by
// seeds and returns every reached user with its predicted probability.
// It exposes the raw §5 algorithm for analysis and tooling. Concurrent
// callers each check a propagator out of a sync.Pool, so parallel calls
// never share scratch buffers.
//
// Seeds outside the dataset's user range are dropped at this boundary
// (counted by engine/propagate/invalid_seeds), mirroring validateIDs on
// the Observe path: they cannot exist in the similarity graph, and
// letting them through would also inflate the popularity fed to the
// dynamic threshold. The propagation kernels additionally guard their
// own entry points, so direct callers are safe too.
func (e *Engine) PropagateScores(seeds []UserID) map[UserID]float64 {
	seeds = e.validSeeds(seeds)
	e.mu.RLock()
	defer e.mu.RUnlock()
	g := e.rec.Graph()
	prop, _ := e.props.Get().(*propagation.Propagator)
	if prop == nil {
		prop = propagation.New(g, propagation.DefaultConfig())
	} else {
		prop.Rebind(g)
	}
	res := prop.Propagate(seeds, len(seeds))
	out := make(map[UserID]float64, res.Len())
	for i, u := range res.Users {
		out[u] = res.Scores[i]
	}
	e.props.Put(prop)
	return out
}

// validSeeds filters out-of-range seed users, counting the drops.
func (e *Engine) validSeeds(seeds []UserID) []UserID {
	n := e.ds.NumUsers()
	for i, s := range seeds {
		if int(s) >= n {
			// First invalid seed: switch to a filtered copy (the common
			// all-valid case stays allocation-free).
			valid := make([]UserID, i, len(seeds))
			copy(valid, seeds[:i])
			dropped := 1
			for _, s := range seeds[i+1:] {
				if int(s) < n {
					valid = append(valid, s)
				} else {
					dropped++
				}
			}
			e.mInvalidSeeds.Add(uint64(dropped))
			return valid
		}
	}
	return seeds
}

// GraphCharacteristics measures the current similarity graph (Table 4).
func (e *Engine) GraphCharacteristics(pathSamples int) simgraph.Characteristics {
	e.mu.RLock()
	g := e.rec.Graph()
	e.mu.RUnlock()
	// The graph is immutable once installed; measuring outside the lock
	// keeps this long BFS-heavy read from delaying writers.
	return simgraph.Measure(g, samplePathSources(g, pathSamples))
}

// samplePathSources picks the BFS sources for path sampling: a
// deterministic stride sample over every eligible node (out-degree > 0),
// so the sources span the whole ID range. The previous "first
// pathSamples eligible IDs" rule biased the Table-4 path statistics
// toward low IDs, which the generator correlates with account age and
// degree; see EXPERIMENTS.md.
func samplePathSources(g *wgraph.Graph, pathSamples int) []UserID {
	if pathSamples <= 0 {
		return nil
	}
	var eligible []UserID
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(UserID(u)) > 0 {
			eligible = append(eligible, UserID(u))
		}
	}
	if len(eligible) <= pathSamples {
		return eligible
	}
	srcs := make([]UserID, 0, pathSamples)
	for i := 0; i < pathSamples; i++ {
		srcs = append(srcs, eligible[i*len(eligible)/pathSamples])
	}
	return srcs
}

// Similarity returns sim(u, v) under the engine's current profiles.
func (e *Engine) Similarity(u, v UserID) float64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Sim(u, v)
}

// RefreshStats reports the cost split of one RefreshGraph call: the
// expensive graph construction (which runs under the read lock, so
// recommendation traffic keeps flowing but writers stall — WriteStall),
// the unlocked replay of the observed-log snapshot, and the brief
// exclusive section that folds in the delta and swaps the recommender.
// LockHold is the serving-latency budget a refresh actually costs
// readers; WriteStall is what it costs writers.
type RefreshStats struct {
	// Strategy is the maintenance strategy this refresh ran.
	Strategy UpdateStrategy
	// BuildTime is the similarity-graph construction time alone. For the
	// Incremental strategy it tracks the dirty-set's activity mass (only
	// dirty users are re-explored) and runs outside every engine lock, so
	// it stalls nobody.
	BuildTime time.Duration
	// WriteStall is the total read-lock hold. Readers proceed throughout,
	// but Observe is excluded for this long. For the one-shot strategies
	// this covers the whole graph construction plus the observed-log
	// snapshot copy; for UpdateIncremental the construction happens after
	// the lock is released (against a store snapshot), so writers stall
	// only for the dirty-set drain and the two snapshot copies — the
	// O(all-users) refresh stall this strategy exists to kill.
	WriteStall time.Duration
	// LockHold is how long the exclusive write lock was held: replaying
	// the handful of actions that arrived during the unlocked snapshot
	// replay, compacting the observed log, and swapping the recommender.
	// The bulk replay happens before this lock is taken, so LockHold
	// scales with the refresh-window delta, not the live window.
	LockHold time.Duration
	// Edges is the edge count of the installed graph.
	Edges int
	// Replayed is how many observed actions were replayed into the new
	// recommender — the actions on tweets still inside the freshness
	// horizon (snapshot replay plus the exclusive delta replay).
	Replayed int
	// Compacted is how many expired actions this refresh dropped from the
	// observed log.
	Compacted int
	// DirtyUsers is how many users the incremental strategy re-scored
	// (the drained dirty set); zero for the other strategies.
	DirtyUsers int
	// EdgesAdded/EdgesRemoved/EdgesReweighted are the simgraph.Diff of
	// the installed graph against its predecessor.
	EdgesAdded      int
	EdgesRemoved    int
	EdgesReweighted int
}

// RefreshGraph rebuilds or repairs the similarity graph with one of the
// paper's §6.3 strategies (or the Incremental strategy), folding in every
// action observed since construction. The recommender keeps its pooled
// candidates. Readers observe either the old or the new graph, never a
// half-built one.
//
// The refresh runs in three phases. Phase one holds the READ lock —
// recommendation reads proceed throughout, but Observe (a writer) is
// excluded so the profile store stays stable; that write-side stall is
// the RLock-excludes-writers contract RefreshStats reports as
// WriteStall. The one-shot strategies construct the whole graph inside
// this phase; UpdateIncremental instead drains the dirty set and clones
// the store, then re-scores the dirty users against that snapshot with
// no lock held — writers stall for a copy, not a build. The bulk replay
// of observed actions likewise runs with NO engine lock against a
// snapshot of the log, and only the delta replay plus the recommender
// swap holds the exclusive lock. Retweets observed during any unlocked
// stretch are folded into the new recommender's pools by the delta
// replay and re-marked dirty in the live store; they appear as graph
// edges on the next refresh, exactly as actions streamed after a
// fully-locked rebuild would have.
func (e *Engine) RefreshGraph(strategy UpdateStrategy) {
	e.RefreshGraphStats(strategy)
}

// RefreshGraphStats is RefreshGraph returning its cost split.
//
// The replay covers only the actions whose tweet is still inside the
// freshness horizon (published within MaxAge of the newest observed
// action), and the exclusive section compacts the observed log to that
// suffix. Older actions cannot influence the new recommender: their
// tweets can neither create propagation state (Recommender.Observe
// stale-drops them and resolveLocked refuses expired state) nor surface
// as pool candidates (TopK evicts past the horizon), and since every
// retweet postdates its tweet's publication, dropping by tweet age also
// keeps every already-shared mark that could still matter. This bounds
// the total replay by the live-window size — and because the bulk of it
// runs unlocked against a snapshot, LockHold covers only the actions
// that arrived while that snapshot replayed (typically none to a few).
//
// Strategy-specific dirty-set handling: Incremental drains the store's
// dirty set under the read lock and re-scores exactly those users;
// FromScratch also drains it (the full rebuild covers every pending
// user); KeepOld, Crossfold and UpdateWeights leave it intact, so the
// pending users are still repaired by a later incremental pass.
//
// Concurrent RefreshGraphStats calls serialize on refreshMu: the
// unlocked replay phase reads a snapshot whose backing array a second
// refresh's compaction would otherwise mutate.
func (e *Engine) RefreshGraphStats(strategy UpdateStrategy) RefreshStats {
	e.refreshMu.Lock()
	defer e.refreshMu.Unlock()
	var st RefreshStats
	st.Strategy = strategy

	// Phase 1 — read lock. For the one-shot strategies the graph is built
	// here: writers (Observe) stall for the whole construction; readers
	// keep flowing. The Incremental strategy instead only drains the dirty
	// set and clones the profile store under the lock — the build itself
	// runs against that snapshot after RUnlock, so writers stall for an
	// O(store) copy instead of the construction. Actions observed while
	// the snapshot build runs mutate only the live store and re-mark their
	// users dirty, so the next incremental pass repairs them — the same
	// next-refresh contract every post-build action already has.
	e.mu.RLock()
	start := time.Now()
	prev := e.rec.Graph()
	var g *wgraph.Graph
	var dirty []ids.UserID
	var snapStore *similarity.Store
	switch strategy {
	case UpdateIncremental:
		dirty = e.store.DrainDirty(nil)
		st.DirtyUsers = len(dirty)
		if len(dirty) > 0 {
			snapStore = e.store.Clone()
		}
	case UpdateFromScratch:
		e.store.DrainDirty(nil) // the full rebuild covers every pending dirty user
		g = simgraph.Update(strategy, prev, e.ds.Graph, e.store, e.recommenderConfig().Graph)
	default:
		g = simgraph.Update(strategy, prev, e.ds.Graph, e.store, e.recommenderConfig().Graph)
	}
	if g != nil {
		st.BuildTime = time.Since(start)
	}
	// Snapshot the observed log so the bulk replay can run unlocked: a
	// private copy, because Observe appends (growing the backing array is
	// fine) but the exclusive phase's compaction rewrites it in place.
	snap := append([]Action(nil), e.observed...)
	snapNewest := e.observedNewest
	e.mu.RUnlock()
	st.WriteStall = time.Since(start)
	if g == nil {
		// Incremental: re-score the dirty users' neighbourhoods against the
		// store snapshot with no engine lock held. With an empty dirty set
		// the previous graph is provably still exact and is kept as-is.
		built := time.Now()
		if snapStore != nil {
			g = simgraph.UpdateIncremental(prev, e.ds.Graph, snapStore, dirty, e.recommenderConfig().Graph)
		} else {
			g = prev
		}
		st.BuildTime = time.Since(built)
	}
	st.Edges = g.NumEdges()
	d := simgraph.Diff(prev, g)
	st.EdgesAdded, st.EdgesRemoved, st.EdgesReweighted = d.EdgesAdded, d.EdgesRemoved, d.EdgesReweighted

	// Phase 2 — no engine lock: build a fresh recommender on the new
	// graph and replay the snapshot's live window into its private pools.
	// Its score-change hook stays silent until phase 3 installs it: the
	// replay changes no list anyone is served yet, and the nil flush
	// after the install covers every user anyway.
	var installed atomic.Bool
	rcfg := e.recommenderConfig()
	rcfg.OnChanged = func(users []UserID) {
		if installed.Load() {
			e.fireScoresChanged(users)
		}
	}
	rec := simgraph.NewRecommender(rcfg)
	rec.InitWithGraph(e.ctx, g)
	cutoff := snapNewest - e.opts.MaxAge
	replayed := 0
	for _, a := range snap {
		if e.ds.Tweets[a.Tweet].Time >= cutoff {
			rec.Observe(a)
			replayed++
		}
	}

	// Phase 3 — exclusive: fold in the actions that arrived during the
	// unlocked replay, compact the log, install the recommender.
	e.mu.Lock()
	locked := time.Now()
	cutoff = e.observedNewest - e.opts.MaxAge
	for _, a := range e.observed[len(snap):] {
		if e.ds.Tweets[a.Tweet].Time >= cutoff {
			rec.Observe(a)
			replayed++
		}
	}
	_, dropped := e.compactObservedLocked()
	e.rec = rec
	installed.Store(true)
	st.Replayed = replayed
	st.Compacted = dropped
	st.LockHold = time.Since(locked)
	e.mu.Unlock()

	// The swap may have changed any user's servable list (new graph, new
	// pools): nil means full invalidation. Fired strictly after the
	// install, so a cache fill racing the refresh is always either
	// computed on the new recommender or invalidated here.
	e.fireScoresChanged(nil)

	e.mRefreshes.Inc()
	e.mRefreshBuild.ObserveDuration(st.BuildTime)
	e.mRefreshLock.ObserveDuration(st.LockHold)
	e.mWriteStall.ObserveDuration(st.WriteStall)
	e.mReplayed.Add(uint64(st.Replayed))
	e.mCompacted.Add(uint64(st.Compacted))
	e.mDirtyUsers.Add(uint64(st.DirtyUsers))
	e.mEdgesAdded.Add(uint64(st.EdgesAdded))
	e.mEdgesRemoved.Add(uint64(st.EdgesRemoved))
	e.mEdgesReweigh.Add(uint64(st.EdgesReweighted))
	// Embeddings track graph churn: re-detect on the graph that was just
	// installed, so the next refresh prunes against current communities.
	// Runs after the locks are released — detection reads only the
	// immutable graph and the shared follow graph.
	e.detectClusters(g)
	return st
}

// maybeStartRefresher starts the background refresher when the options
// ask for one (RefreshEvery > 0). Mirrors the checkpointer's lifecycle:
// a ticker goroutine stopped by Close.
func (e *Engine) maybeStartRefresher() {
	if e.opts.RefreshEvery <= 0 {
		return
	}
	e.refreshStop = make(chan struct{})
	e.refreshDone = make(chan struct{})
	go e.refresherLoop(e.opts.RefreshEvery, e.opts.RefreshStrategy)
}

// refresherLoop runs RefreshGraph on a ticker until Close. Incremental
// passes are skipped while the dirty set is empty — no profile changed,
// so the graph could not have moved and the refresh would only churn
// the recommender swap (counted by engine/refresh/skipped_clean).
func (e *Engine) refresherLoop(every time.Duration, strategy UpdateStrategy) {
	defer close(e.refreshDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-e.refreshStop:
			return
		case <-t.C:
			if strategy == UpdateIncremental {
				e.mu.RLock()
				clean := e.store.DirtyCount() == 0
				e.mu.RUnlock()
				if clean {
					e.mRefreshSkips.Inc()
					continue
				}
			}
			e.RefreshGraph(strategy)
		}
	}
}

// compactObservedLocked drops every observed action whose tweet has aged
// out of the freshness horizon relative to the newest observed action,
// keeps the rest in order, installs the compacted log as e.observed, and
// returns it with the dropped count. Callers hold e.mu exclusively.
func (e *Engine) compactObservedLocked() ([]Action, int) {
	cutoff := e.observedNewest - e.opts.MaxAge
	kept := e.observed[:0]
	for _, a := range e.observed {
		if e.ds.Tweets[a.Tweet].Time >= cutoff {
			kept = append(kept, a)
		}
	}
	dropped := len(e.observed) - len(kept)
	if dropped > 0 && cap(kept) > 2*len(kept) {
		// Most of the log expired: release the oversized backing array
		// rather than pinning it until the next growth.
		kept = append(make([]Action, 0, len(kept)), kept...)
	}
	e.observed = kept
	e.mObservedLen.Set(int64(len(kept)))
	return kept, dropped
}

// Metrics snapshots the engine-wide instrument registry: the engine/*
// serving-path series (Recommend/Observe latency, refresh build and
// lock-hold, cold-start fallbacks, observed-log length), the
// recommender's rec/* streaming series (propagations, drains, per-tweet
// states, scheduler depth), and the similarity/* kernel counters.
// Instrument paths are stable; see DESIGN.md §10 for the full inventory.
// Safe for any number of concurrent callers.
func (e *Engine) Metrics() metrics.Snapshot { return e.metrics.Snapshot() }

// MetricsRegistry exposes the live registry, for callers that wire the
// debug HTTP surface (metrics.NewDebugMux) or resolve instruments to
// watch individual series without snapshotting everything.
func (e *Engine) MetricsRegistry() *metrics.Registry { return e.metrics }

// ObservedActions returns a copy of the actions streamed in so far. The
// copy is taken under the read lock, so it is a consistent prefix of the
// observed log even while writers stream, and mutating it never touches
// engine state — required when the caller is a shard router polling many
// engines whose logs compact concurrently (RefreshGraph rewrites the
// backing array in place under the exclusive lock).
func (e *Engine) ObservedActions() []Action {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]Action, len(e.observed))
	copy(out, e.observed)
	return out
}

// Dataset returns the engine's dataset. The pointer is shared, not
// copied — the dataset is multi-megabyte and immutable by contract: no
// engine method ever mutates it, and a shard router deliberately shares
// one dataset across every shard engine. Callers must treat the graph,
// tweet, and action slices as read-only; no lock is needed because the
// field is set at construction and never reassigned.
func (e *Engine) Dataset() *Dataset { return e.ds }

var _ = dataset.SortActions // keep the dataset import for the type aliases

// ColdStartUsers returns the users absent from the similarity graph —
// those with no retweet in the training log or no sufficiently similar
// neighbour (the paper's cold-start cohort, §4.1).
func (e *Engine) ColdStartUsers() []UserID {
	e.mu.RLock()
	g := e.rec.Graph()
	e.mu.RUnlock()
	var out []UserID
	for u := 0; u < g.NumNodes(); u++ {
		if g.OutDegree(ids.UserID(u)) == 0 && g.InDegree(ids.UserID(u)) == 0 {
			out = append(out, UserID(u))
		}
	}
	return out
}

// BubbleAssignment maps users to information bubbles — densely connected
// regions of the similarity graph (§7 future work).
type BubbleAssignment = bubbles.Assignment

// DetectBubbles identifies information bubbles in the current similarity
// graph with label propagation and returns the assignment plus its
// weighted modularity (higher = stronger bubble structure).
func (e *Engine) DetectBubbles() (*BubbleAssignment, float64) {
	e.mu.RLock()
	g := e.rec.Graph()
	e.mu.RUnlock()
	a := bubbles.Detect(g, bubbles.DefaultConfig())
	return a, bubbles.Modularity(g, a)
}

// RecommendDiverse is Recommend with bubble-escape re-ranking: no single
// bubble may hold more than maxBubbleShare of the top-k, so users see
// content from outside their information locality whenever any exists.
func (e *Engine) RecommendDiverse(a *BubbleAssignment, u UserID, k int, now Timestamp, maxBubbleShare float64) []Recommendation {
	if int(u) >= e.ds.NumUsers() || k <= 0 {
		return nil
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	d := bubbles.NewDiversifier(e.rec, a, func(t TweetID) UserID { return e.ds.Tweets[t].Author })
	if maxBubbleShare > 0 {
		d.MaxBubbleShare = maxBubbleShare
	}
	scored := d.Recommend(u, k, now)
	out := make([]Recommendation, len(scored))
	for i, s := range scored {
		out[i] = Recommendation{Tweet: s.Tweet, Score: s.Score}
	}
	return out
}
