// Command serveload load-tests the serving path over HTTP. It builds
// one backend — a single engine, a -shards N fleet, either of them
// durable under -wal-dir, a replication leader (-serve-wal), or a read
// replica (-follower) — mounts internal/server on one listener at
// -addr, and drives it with HTTP clients the way a front-end fleet
// would: JSON encode/decode, socket hops, the delta-invalidated cache,
// the load shedder, and POST /observe into the engine's one write path
// (and its WAL). The same listener serves /debug/metrics and
// /debug/pprof while the load runs.
//
// Phases, in order (each starts a fresh server.Server behind the same
// listener, so caches and server/* counters are per phase):
//
//  0. Calibration (when the overload phase runs): read-only,
//     cache-busting requests measure the backend's uncontended read
//     p99 through the full network path.
//  1. Closed loop: -writers clients stream the test split through POST
//     /observe while -readers clients issue GET /recommend over a hot
//     user set, each waiting for its response before sending the next.
//     Reports sustained throughput, client-side p50/p90/p99 from a
//     uniform reservoir, and the server's cache hit ratio.
//  2. Open loop (-overload-duration > 0): reads arrive on a fixed
//     schedule at -overload-factor times the closed-loop read
//     throughput, whether or not earlier requests have completed,
//     against a server whose p99 budget is -budget-factor times the
//     calibrated p99. Reports the p99 of ADMITTED reads and the 429
//     shed counts.
//  3. Replica reads (-replica-duration > 0; needs -shards 1 and a
//     local dataset): a durable leader in a temporary directory serves
//     the /wal/ shipping endpoints, a read replica bootstraps from its
//     checkpoint and tails its WAL, and readers split across both
//     while writers stream observes at the leader.
//
// Every request's status is checked: anything but 204 on /observe or
// 200 on /recommend (429 in the open loop) fails the run. The report
// goes to -out as JSON (BENCH_serving.json; -out "" writes none), and
// the run ends by printing the backend's metrics.
//
// With -wal-dir DIR every observe is write-ahead logged (fsync policy
// per -wal-sync), -checkpoint-every snapshots in the background, and a
// rerun with the same directory recovers the stream (a SIGKILL
// mid-run loses at most the unsynced tail). A fresh directory is
// seeded with a bootstrap checkpoint before load starts. With -shards
// N every shard logs and checkpoints into its own subdirectory.
//
// With -serve-wal (requires -wal-dir and -shards 1) the process is a
// replication leader: -addr also serves the /wal/ endpoints, and WAL
// truncation is pinned to the slowest attached follower. With
// -follower URL -replica-dir DIR the process is a read replica of the
// leader at URL: it bootstraps into DIR, tails the leader's WAL, and
// runs readers only (observe on the leader).
//
// Usage:
//
//	serveload [-users 2000] [-seed 1] [-k 10] [-shards 1]
//	          [-readers 8] [-writers 4] [-duration 5s] [-hot-users 256]
//	          [-max-age-hours 0] [-postpone] [-cluster-prune]
//	          [-prune-min-overlap 0] [-refresh-every 0]
//	          [-refresh-strategy update-weights]
//	          [-overload-duration 5s] [-overload-factor 3]
//	          [-budget-factor 2] [-replica-duration 3s]
//	          [-wal-dir DIR] [-wal-sync interval] [-checkpoint-every 0]
//	          [-serve-wal] [-follower URL -replica-dir DIR]
//	          [-addr 127.0.0.1:0] [-out BENCH_serving.json]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/loadgen"
	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

type config struct {
	users, k, shards, readers, writers, hot int
	seed                                    uint64
	maxAgeHours                             int64
	duration, overloadDur, replicaDur       time.Duration
	overloadFac, budgetFac, pruneOv         float64
	postpone, prune, serveWAL               bool
	refreshEvery, ckEvery                   time.Duration
	refreshStrategy, walDir, walSync        string
	follower, repDir, addr, out             string
}

func parseFlags(args []string) (config, error) {
	var c config
	fs := flag.NewFlagSet("serveload", flag.ContinueOnError)
	fs.IntVar(&c.users, "users", 2000, "number of users to generate")
	fs.Uint64Var(&c.seed, "seed", 1, "generator seed")
	fs.IntVar(&c.k, "k", 10, "recommendations per request")
	fs.IntVar(&c.shards, "shards", 1, "partition users across this many engine shards behind the consistent-hash router (with -wal-dir each shard gets its own WAL+checkpoint subdirectory)")
	fs.IntVar(&c.readers, "readers", 8, "closed-loop reader clients")
	fs.IntVar(&c.writers, "writers", 4, "closed-loop writer clients (none in -follower mode)")
	fs.DurationVar(&c.duration, "duration", 5*time.Second, "closed-loop phase length")
	fs.IntVar(&c.hot, "hot-users", 256, "hot user set readers concentrate on (cache locality)")
	fs.Int64Var(&c.maxAgeHours, "max-age-hours", 0, "freshness horizon in simulated hours (0 = whole history fresh)")
	fs.BoolVar(&c.postpone, "postpone", false, "enable the postponed-propagation scheduler")
	fs.BoolVar(&c.prune, "cluster-prune", false, "detect community embeddings at each refresh and pre-filter candidate generation with them")
	fs.Float64Var(&c.pruneOv, "prune-min-overlap", 0, "lossy prune threshold for -cluster-prune (0 = provably lossless certificate mode)")
	fs.DurationVar(&c.refreshEvery, "refresh-every", 0, "background RefreshGraph period (0 = never)")
	fs.StringVar(&c.refreshStrategy, "refresh-strategy", "update-weights", "maintenance strategy for -refresh-every: from-scratch, keep-old, crossfold, update-weights, or incremental")
	fs.DurationVar(&c.overloadDur, "overload-duration", 5*time.Second, "open-loop overload phase length (0 = skip, with its calibration)")
	fs.Float64Var(&c.overloadFac, "overload-factor", 3, "open-loop arrival rate as a multiple of closed-loop read throughput")
	fs.Float64Var(&c.budgetFac, "budget-factor", 2, "overload-phase p99 budget as a multiple of the calibrated uncontended read p99")
	fs.DurationVar(&c.replicaDur, "replica-duration", 3*time.Second, "replica-reads phase length (0 = skip; runs only with -shards 1 and without -follower)")
	fs.StringVar(&c.walDir, "wal-dir", "", "durability directory: WAL every observe and recover from it on start")
	fs.StringVar(&c.walSync, "wal-sync", "interval", "WAL fsync policy: always, interval, or none")
	fs.DurationVar(&c.ckEvery, "checkpoint-every", 0, "background checkpoint period into -wal-dir (0 = never)")
	fs.BoolVar(&c.serveWAL, "serve-wal", false, "leader mode: also serve the /wal/ replication endpoints on -addr and pin WAL truncation to follower acks (requires -wal-dir, -shards 1)")
	fs.StringVar(&c.follower, "follower", "", "follower mode: attach to this leader base URL (the leader's -addr) and serve reads from a local replica")
	fs.StringVar(&c.repDir, "replica-dir", "", "follower mode: local mirror directory for checkpoints and shipped WAL segments")
	fs.StringVar(&c.addr, "addr", "127.0.0.1:0", "listen address")
	fs.StringVar(&c.out, "out", "BENCH_serving.json", `output JSON path ("" = no report)`)
	if err := fs.Parse(args); err != nil {
		return c, err
	}
	switch {
	case c.serveWAL && (c.walDir == "" || c.shards > 1):
		return c, errors.New("-serve-wal requires -wal-dir and -shards 1 (one leader serves one durability directory)")
	case c.follower != "" && c.repDir == "":
		return c, errors.New("-follower requires -replica-dir DIR for the local mirror")
	case c.follower != "" && (c.walDir != "" || c.serveWAL || c.shards > 1):
		return c, errors.New("-follower is exclusive with -wal-dir/-serve-wal/-shards: a replica's durability is its leader's")
	}
	return c, nil
}

// engineOptions is every engine's configuration, leader and follower
// alike (a follower must match its leader's). The generator simulates
// ~90 days; under the paper's 72 h horizon almost every pool tweet is
// stale at stream end and every read falls to cold start, which
// bypasses the cache by design. The tool wants warm-path behaviour, so
// the default keeps the whole history fresh and -max-age-hours
// restores a real horizon.
func (c config) engineOptions() (repro.EngineOptions, error) {
	opts := repro.DefaultEngineOptions()
	opts.Postpone = c.postpone
	opts.ClusterPrune = c.prune
	opts.PruneMinOverlap = c.pruneOv
	opts.MaxAge = 1 << 40
	if c.maxAgeHours > 0 {
		opts.MaxAge = repro.Timestamp(c.maxAgeHours) * repro.Hour
	}
	opts.RefreshEvery = c.refreshEvery
	var err error
	opts.RefreshStrategy, err = repro.ParseUpdateStrategy(c.refreshStrategy)
	return opts, err
}

// backend is what a run serves: the server.Backend plus what the load
// phases need around it.
type backend struct {
	server.Backend
	leader   *replica.Leader   // -serve-wal
	follower *replica.Follower // -follower
	ds       *repro.Dataset
	test     []repro.Action // nil for a follower: replicas take no writes
	close    func() error
}

// openBackend builds the backend c describes. Durable modes print the
// recovery line, or the bootstrap-checkpoint line of a fresh
// directory, to out.
func openBackend(c config, out io.Writer) (*backend, error) {
	start := time.Now()
	opts, err := c.engineOptions()
	if err != nil {
		return nil, err
	}
	if c.follower != "" {
		// The dataset, trained graph and action stream all arrive from
		// the leader's checkpoint and shipped WAL.
		fol, err := replica.Open(c.follower, replica.FollowerOptions{Dir: c.repDir, Engine: opts})
		if err != nil {
			return nil, err
		}
		if err := fol.WaitCaughtUp(time.Minute); err != nil {
			fol.Close()
			return nil, fmt.Errorf("catching up to %s: %w", c.follower, err)
		}
		fmt.Fprintf(out, "replica of %s: applied index %d (lag %d) into %s in %v (GOMAXPROCS=%d)\n",
			c.follower, fol.AppliedIndex(), fol.Lag(), c.repDir,
			time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
		return &backend{Backend: server.ForFollower(fol), follower: fol, ds: fol.Engine().Dataset(), close: fol.Close}, nil
	}

	ds, err := gen.Generate(gen.DefaultConfig(c.users, c.seed))
	if err != nil {
		return nil, err
	}
	train, test, err := repro.SplitDataset(ds, 0.9)
	if err != nil {
		return nil, err
	}
	opts.Train = train
	b := &backend{ds: ds, test: test}
	var policy repro.WALSyncPolicy
	if c.walDir != "" {
		if policy, err = repro.ParseWALSyncPolicy(c.walSync); err != nil {
			return nil, err
		}
	}
	oopts := repro.OpenOptions{Engine: opts, Dataset: ds, WALSync: policy, CheckpointEvery: c.ckEvery}

	switch {
	case c.shards > 1 && c.walDir != "":
		router, stats, err := shard.Open(c.walDir, oopts, shard.Options{Shards: c.shards})
		if err != nil {
			return nil, err
		}
		b.Backend, b.close = server.ForRouter(router), router.Close
		recovered := false
		for i, rs := range stats {
			if rs.Recovered {
				recovered = true
				fmt.Fprintf(out, "recovered shard %d: checkpoint seq %d (%d actions) + WAL tail %d records (torn=%v) in %v\n",
					i, rs.CheckpointSeq, rs.CheckpointActions, rs.WALRecords, rs.WALTorn, rs.Duration.Round(time.Millisecond))
			}
		}
		if !recovered {
			// Seed every shard synchronously, so a kill at any later
			// moment recovers the fleet without this process's dataset.
			cks, err := router.Checkpoint()
			if err != nil {
				router.Close()
				return nil, err
			}
			var bytes int64
			for _, st := range cks {
				bytes += st.Bytes
			}
			fmt.Fprintf(out, "durability: fresh %s, bootstrap checkpoints on %d shards (%d bytes, sync=%s)\n",
				c.walDir, len(cks), bytes, policy)
		}
	case c.shards > 1:
		router, err := shard.New(ds, opts, shard.Options{Shards: c.shards})
		if err != nil {
			return nil, err
		}
		b.Backend, b.close = server.ForRouter(router), router.Close
	case c.walDir != "":
		eng, rs, err := repro.OpenEngine(c.walDir, oopts)
		if err != nil {
			return nil, err
		}
		b.Backend, b.close = server.ForEngine(eng), eng.Close
		if rs.Recovered {
			fmt.Fprintf(out, "recovered %s: checkpoint seq %d (%d actions) + WAL tail %d records (torn=%v) in %v\n",
				c.walDir, rs.CheckpointSeq, rs.CheckpointActions, rs.WALRecords, rs.WALTorn, rs.Duration.Round(time.Millisecond))
		} else {
			// Seed a bootstrap checkpoint synchronously, so a kill at any
			// later moment recovers without this process's dataset.
			st, err := eng.Checkpoint(c.walDir)
			if err != nil {
				eng.Close()
				return nil, err
			}
			fmt.Fprintf(out, "durability: fresh %s, bootstrap checkpoint seq %d (%d bytes, sync=%s)\n",
				c.walDir, st.Seq, st.Bytes, policy)
		}
		if c.serveWAL {
			// Serve this directory to followers, and never truncate
			// records a live follower has not acknowledged.
			b.leader = replica.NewLeader(c.walDir, eng.WALNextIndex, replica.LeaderOptions{Metrics: eng.MetricsRegistry()})
			eng.SetWALRetainFloor(b.leader.RetainFloor)
		}
	default:
		eng, err := repro.NewEngine(ds, opts)
		if err != nil {
			return nil, err
		}
		b.Backend, b.close = server.ForEngine(eng), eng.Close
	}
	fmt.Fprintf(out, "trained on %d users / %d train actions across %d shard(s) in %v (GOMAXPROCS=%d)\n",
		ds.NumUsers(), len(train), c.shards, time.Since(start).Round(time.Millisecond), runtime.GOMAXPROCS(0))
	return b, nil
}

// serve starts an HTTP server for h on addr and returns its base URL
// and a function that closes it and waits for it to stop.
func serve(addr string, h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln) // returns ErrServerClosed once stop closes hs
	}()
	stop := func() {
		hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// phases is the handler behind the tool's one listener. next swaps in
// a fresh server.Server per phase, so -addr (and any follower attached
// to it) stays put while caches and server/* counters start clean.
type phases struct {
	b   *backend
	cur *server.Server
	h   atomic.Pointer[http.Handler]
}

func (p *phases) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*p.h.Load()).ServeHTTP(w, r)
}

func (p *phases) next(opts server.Options) *server.Server {
	// The old server detaches its invalidation hook on Close, so it
	// must close before the new one installs its own.
	if p.cur != nil {
		p.cur.Close()
	}
	opts.Replication = p.b.leader
	p.cur = server.New(p.b.Backend, opts)
	h := p.cur.Handler()
	p.h.Store(&h)
	return p.cur
}

func run(args []string, out io.Writer) (err error) {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	b, err := openBackend(cfg, out)
	if err != nil {
		return err
	}
	// Closing a durable backend flushes its WAL: its error is the run's.
	defer func() { err = errors.Join(err, b.close()) }()

	ph := &phases{b: b}
	ph.next(server.Options{})
	root := http.NewServeMux()
	root.Handle("/debug/", metrics.NewDebugMux(b.Metrics))
	root.Handle("/", ph)
	base, stop, err := serve(cfg.addr, root)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintf(out, "serving on %s (metrics and pprof under /debug/)\n", base)
	if b.leader != nil {
		fmt.Fprintf(out, "replication leader: followers attach with -follower %s\n", base)
	}

	writers := cfg.writers
	if b.test == nil {
		writers = 0
	}
	conns := openLoopPool + cfg.readers + cfg.writers
	l := &loader{
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns},
			Timeout:   30 * time.Second,
		},
		test: b.test,
		k:    cfg.k,
		hot:  min(cfg.hot, b.ds.NumUsers()),
		now:  b.ds.Actions[b.ds.NumActions()-1].Time + 1,
		seed: cfg.seed,
	}

	// ---- Phase 0: calibration ----
	// Calibrating against the mixed workload instead would bake the
	// write-lock contention into the budget, and the storm would never
	// read as anomalous.
	var calP99 time.Duration
	if cfg.overloadDur > 0 {
		pre := metrics.SnapshotAll(b.RecommendLatency())
		if err := l.calibrate(base, 1500*time.Millisecond); err != nil {
			return fmt.Errorf("calibration: %w", err)
		}
		calP99 = time.Duration(metrics.DeltaMerge(pre, metrics.SnapshotAll(b.RecommendLatency())).Quantile(0.99))
		fmt.Fprintf(out, "calibration: uncontended engine read p99 %v\n", calP99.Round(time.Microsecond))
	}

	// ---- Phase 1: closed loop ----
	srv := ph.next(server.Options{})
	pre := metrics.SnapshotAll(b.RecommendLatency())
	closed, err := l.closedLoop(base, cfg.readers, writers, cfg.duration)
	if err != nil {
		return fmt.Errorf("closed loop: %w", err)
	}
	closed.fillCache(srv.Metrics())
	engineP99 := time.Duration(metrics.DeltaMerge(pre, metrics.SnapshotAll(b.RecommendLatency())).Quantile(0.99))
	fmt.Fprintf(out, "closed loop: %d reads (%.0f req/s, p99 %v), %d writes (%.0f obs/s), cache hit ratio %.3f, engine p99 %v\n",
		closed.Reads, closed.ReadQPS, time.Duration(closed.ReadP99Us*1e3).Round(time.Microsecond),
		closed.Writes, closed.WriteQPS, closed.Cache.HitRatio, engineP99.Round(time.Microsecond))

	// ---- Phase 2: open loop against a budgeted server ----
	var over *overloadResult
	if cfg.overloadDur > 0 {
		budget := time.Duration(float64(calP99) * cfg.budgetFac)
		if budget <= 0 {
			budget = time.Millisecond
		}
		srv := ph.next(server.Options{P99Budget: budget, ShedWindow: 200 * time.Millisecond, RetryAfter: time.Second})
		rate := closed.ReadQPS * cfg.overloadFac
		if over, err = l.openLoop(base, writers, cfg.overloadDur, rate); err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
		snap := srv.Metrics()
		over.Budget = budget.Nanoseconds()
		over.ShedEngagements = snap.Counters["server/shed/engagements"]
		over.ShedServerCount = snap.Counters["server/shed/shed"]
		fmt.Fprintf(out, "open loop: target %.0f req/s, sent %d, ok %d, shed %d (engagements %d), admitted p99 %v (budget %v)\n",
			over.TargetQPS, over.Sent, over.OK, over.Shed429, over.ShedEngagements,
			time.Duration(over.AdmittedP99Us*1e3).Round(time.Microsecond), budget.Round(time.Microsecond))
	}

	// ---- Phase 3: leader + read replica ----
	var rep *replicaResult
	if cfg.replicaDur > 0 && cfg.shards == 1 && b.test != nil {
		if rep, err = l.replicaPhase(cfg); err != nil {
			return fmt.Errorf("replica phase: %w", err)
		}
		fmt.Fprintf(out, "replica reads: leader %.0f req/s + follower %.0f req/s = %.0f req/s aggregate (%.0f obs/s), follower applied %d, final lag %d\n",
			rep.LeaderQPS, rep.FollowerQPS, rep.AggregateQPS, rep.WriteQPS, rep.FollowerApplied, rep.FollowerLag)
	}

	if b.follower != nil {
		if err := b.follower.Err(); err != nil {
			return fmt.Errorf("replication wedged during load: %w", err)
		}
		fmt.Fprintf(out, "replica: applied index %d, lag %d\n", b.follower.AppliedIndex(), b.follower.Lag())
	}

	if cfg.out != "" {
		rpt := report{
			GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:    runtime.Version(),
			CPUs:         runtime.NumCPU(),
			GoMaxProcs:   runtime.GOMAXPROCS(0),
			Users:        b.ds.NumUsers(),
			Seed:         cfg.seed,
			Shards:       cfg.shards,
			Readers:      cfg.readers,
			Writers:      writers,
			K:            cfg.k,
			CalP99Us:     float64(calP99.Microseconds()),
			ClosedLoop:   closed,
			Overload:     over,
			ReplicaReads: rep,
		}
		buf, err := json.MarshalIndent(rpt, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", cfg.out)
	}

	fmt.Fprintln(out, "\n--- backend metrics ---")
	return b.Metrics().WriteText(out)
}

type report struct {
	GeneratedAt  string          `json:"generated_at"`
	GoVersion    string          `json:"go_version"`
	CPUs         int             `json:"cpus"`
	GoMaxProcs   int             `json:"gomaxprocs"`
	Users        int             `json:"users"`
	Seed         uint64          `json:"seed"`
	Shards       int             `json:"shards"`
	Readers      int             `json:"readers"`
	Writers      int             `json:"writers"`
	K            int             `json:"k"`
	CalP99Us     float64         `json:"calibration_read_p99_us"`
	ClosedLoop   closedResult    `json:"closed_loop"`
	Overload     *overloadResult `json:"overload,omitempty"`
	ReplicaReads *replicaResult  `json:"replica_reads,omitempty"`
}

type cacheStats struct {
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Bypass        uint64  `json:"bypass"`
	Invalidations uint64  `json:"invalidations"`
	HitRatio      float64 `json:"hit_ratio"`
}

type closedResult struct {
	DurationMs float64    `json:"duration_ms"`
	Reads      int64      `json:"reads"`
	Writes     int64      `json:"writes"`
	ReadQPS    float64    `json:"read_qps"`
	WriteQPS   float64    `json:"write_qps"`
	ReadP50Us  float64    `json:"read_p50_us"`
	ReadP90Us  float64    `json:"read_p90_us"`
	ReadP99Us  float64    `json:"read_p99_us"`
	Samples    int        `json:"latency_samples"`
	SampledOf  uint64     `json:"latency_sampled_of"`
	Degraded   int64      `json:"wal_degraded_observes"`
	Cache      cacheStats `json:"cache"`
}

func (r *closedResult) fillCache(snap metrics.Snapshot) {
	r.Cache = cacheStats{
		Hits:          snap.Counters["server/cache/hits"],
		Misses:        snap.Counters["server/cache/misses"],
		Bypass:        snap.Counters["server/cache/bypass"],
		Invalidations: snap.Counters["server/cache/invalidations"],
	}
	if total := r.Cache.Hits + r.Cache.Misses; total > 0 {
		r.Cache.HitRatio = float64(r.Cache.Hits) / float64(total)
	}
}

type overloadResult struct {
	DurationMs      float64 `json:"duration_ms"`
	TargetQPS       float64 `json:"target_qps"`
	Sent            int64   `json:"sent"`
	OK              int64   `json:"ok"`
	Shed429         int64   `json:"shed_429"`
	Dropped         int64   `json:"schedule_overrun_drops"`
	AdmittedP50Us   float64 `json:"admitted_p50_us"`
	AdmittedP99Us   float64 `json:"admitted_p99_us"`
	Samples         int     `json:"latency_samples"`
	Budget          int64   `json:"p99_budget_ns"`
	ShedEngagements uint64  `json:"shed_engagements"`
	ShedServerCount uint64  `json:"shed_server_count"`
}

type replicaResult struct {
	DurationMs      float64 `json:"duration_ms"`
	LeaderReads     int64   `json:"leader_reads"`
	FollowerReads   int64   `json:"follower_reads"`
	Writes          int64   `json:"writes"`
	LeaderQPS       float64 `json:"leader_read_qps"`
	FollowerQPS     float64 `json:"follower_read_qps"`
	AggregateQPS    float64 `json:"aggregate_read_qps"`
	WriteQPS        float64 `json:"write_qps"`
	FollowerP50Us   float64 `json:"follower_read_p50_us"`
	FollowerP99Us   float64 `json:"follower_read_p99_us"`
	FollowerApplied uint64  `json:"follower_applied_index"`
	FollowerLag     uint64  `json:"follower_final_lag"`
	BytesShipped    uint64  `json:"wal_bytes_shipped"`
	Rebootstraps    uint64  `json:"follower_rebootstraps"`
}

// workers runs a phase's client goroutines until its deadline or the
// first error, whichever comes first.
type workers struct {
	wg   sync.WaitGroup
	stop chan struct{}
	once sync.Once
	mu   sync.Mutex
	err  error
}

func newWorkers() *workers { return &workers{stop: make(chan struct{})} }

// loop starts n goroutines; goroutine w calls step(w, i) for i = 0, 1,
// ... until the phase stops or a step fails.
func (p *workers) loop(n int, step func(w, i int) error) {
	for w := 0; w < n; w++ {
		p.wg.Add(1)
		go func(w int) {
			defer p.wg.Done()
			for i := 0; !p.stopped(); i++ {
				if err := step(w, i); err != nil {
					p.fail(err)
					return
				}
			}
		}(w)
	}
}

func (p *workers) stopped() bool {
	select {
	case <-p.stop:
		return true
	default:
		return false
	}
}

func (p *workers) halt() { p.once.Do(func() { close(p.stop) }) }

func (p *workers) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.halt()
}

// run lets the goroutines go for d, stops them, and returns the first
// error any of them hit.
func (p *workers) run(d time.Duration) error {
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-p.stop:
	}
	t.Stop()
	p.halt()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// openLoopPool is the open-loop phase's request worker count.
const openLoopPool = 64

// loader issues the tool's requests: writers replay the test split
// through POST /observe, readers cycle a hot user set through GET
// /recommend.
type loader struct {
	client *http.Client
	test   []repro.Action
	k, hot int
	now    repro.Timestamp
	seed   uint64
}

// observe posts test action i (modulo the split) and reports whether
// the server flagged the append as degraded.
func (l *loader) observe(base string, i int) (degraded bool, err error) {
	a := l.test[i%len(l.test)]
	body := fmt.Sprintf(`{"user":%d,"tweet":%d,"time":%d}`, a.User, a.Tweet, a.Time)
	resp, err := l.client.Post(base+"/observe", "application/json", strings.NewReader(body))
	if err := drain(resp, err); err != nil {
		return false, err
	}
	if resp.StatusCode != http.StatusNoContent {
		return false, fmt.Errorf("POST %s/observe: status %d", base, resp.StatusCode)
	}
	return resp.Header.Get("X-WAL-Degraded") != "", nil
}

// recommend reads hot user u (modulo the hot set) at now and returns
// the status.
func (l *loader) recommend(base string, u int, now repro.Timestamp) (int, error) {
	resp, err := l.client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", base, u%l.hot, l.k, now))
	if err := drain(resp, err); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// drain reads a response body to the end and closes it, so the
// client reuses the connection instead of opening one per request.
func drain(resp *http.Response, err error) error {
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err
}

// read is recommend for phases where only 200 is acceptable.
func (l *loader) read(base string, u int, now repro.Timestamp) error {
	status, err := l.recommend(base, u, now)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("GET %s/recommend: status %d", base, status)
	}
	return err
}

// calibrate issues read-only requests from a few closed-loop clients,
// each with a distinct "now" that defeats the {k, now} cache shape, so
// every request reaches the engine's latency histograms.
func (l *loader) calibrate(base string, d time.Duration) error {
	const clients = 4
	p := newWorkers()
	p.loop(clients, func(c, i int) error {
		j := c + i*clients
		return l.read(base, j, l.now-repro.Timestamp(j%4096))
	})
	return p.run(d)
}

// closedLoop drives phase 1: every client waits for its response
// before issuing the next request, so concurrency, not arrival rate,
// is fixed, and throughput is what the server sustains.
func (l *loader) closedLoop(base string, readers, writers int, d time.Duration) (closedResult, error) {
	var reads, writes, degraded atomic.Int64
	samples := loadgen.NewReservoir(1<<16, l.seed)
	p := newWorkers()
	p.loop(writers, func(w, i int) error {
		deg, err := l.observe(base, w+i*writers)
		if err != nil {
			return err
		}
		if deg {
			degraded.Add(1)
		}
		writes.Add(1)
		return nil
	})
	p.loop(readers, func(r, i int) error {
		t0 := time.Now()
		if err := l.read(base, r*7919+i*13, l.now); err != nil {
			return err
		}
		samples.Observe(time.Since(t0))
		reads.Add(1)
		return nil
	})
	if err := p.run(d); err != nil {
		return closedResult{}, err
	}

	qs := samples.Quantiles(0.50, 0.90, 0.99)
	secs := d.Seconds()
	return closedResult{
		DurationMs: float64(d.Milliseconds()),
		Reads:      reads.Load(),
		Writes:     writes.Load(),
		ReadQPS:    float64(reads.Load()) / secs,
		WriteQPS:   float64(writes.Load()) / secs,
		ReadP50Us:  float64(qs[0].Microseconds()),
		ReadP90Us:  float64(qs[1].Microseconds()),
		ReadP99Us:  float64(qs[2].Microseconds()),
		Samples:    samples.Len(),
		SampledOf:  samples.Seen(),
		Degraded:   degraded.Load(),
	}, nil
}

// openLoop drives phase 2: a scheduler releases one request slot every
// 1/rate seconds regardless of completions (a slot that finds the
// queue full counts as an overrun drop, so the generator itself never
// turns closed-loop under pressure), and a worker pool issues them.
// Each request pins a slightly different "now", so the cache never
// matches and every admitted read does engine work: the storm must hit
// the engine, or the shed controller has nothing to measure. Writers
// stream observes throughout; their propagation under the engine's
// write lock is what inflates read latency under combined load (POST
// /observe is never shed). Admitted (200) latencies go to the
// reservoir; 429s are counted.
func (l *loader) openLoop(base string, writers int, d time.Duration, rate float64) (*overloadResult, error) {
	if rate < 100 {
		rate = 100
	}
	var sent, ok, shed, dropped atomic.Int64
	samples := loadgen.NewReservoir(1<<16, l.seed+1)
	// The scheduler's backlog: a slot that finds it full is an overrun
	// drop, so the queue, not the workers, absorbs a burst of ticks.
	jobs := make(chan int, 4*openLoopPool)
	p := newWorkers()
	p.loop(writers, func(w, i int) error {
		_, err := l.observe(base, w+i*writers)
		return err
	})
	p.loop(openLoopPool, func(w, i int) error {
		u, more := <-jobs
		if !more {
			return nil // the scheduler has stopped: so has the phase
		}
		reqNow := l.now - repro.Timestamp((w*131+i*7)%1024)
		t0 := time.Now()
		status, err := l.recommend(base, u, reqNow)
		switch {
		case err != nil:
			return err
		case status == http.StatusOK:
			ok.Add(1)
			samples.Observe(time.Since(t0))
		case status == http.StatusTooManyRequests:
			shed.Add(1)
		default:
			return fmt.Errorf("GET %s/recommend: status %d", base, status)
		}
		return nil
	})
	interval := max(time.Duration(float64(time.Second)/rate), 10*time.Microsecond)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(jobs) // the scheduler owns jobs: nobody else may send
		for u := 0; ; u += 13 {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				select {
				case jobs <- u:
					sent.Add(1)
				default:
					dropped.Add(1)
				}
			}
		}
	}()
	if err := p.run(d); err != nil {
		return nil, err
	}

	qs := samples.Quantiles(0.50, 0.99)
	return &overloadResult{
		DurationMs:    float64(d.Milliseconds()),
		TargetQPS:     rate,
		Sent:          sent.Load(),
		OK:            ok.Load(),
		Shed429:       shed.Load(),
		Dropped:       dropped.Load(),
		AdmittedP50Us: float64(qs[0].Microseconds()),
		AdmittedP99Us: float64(qs[1].Microseconds()),
		Samples:       samples.Len(),
	}, nil
}

// replicaPhase drives phase 3. It opens a durable leader (-serve-wal
// in a temporary directory) and a follower of it (-follower), both
// through openBackend and each behind its own loopback listener, then
// splits closed-loop readers across the two while writers stream
// observes at the leader.
func (l *loader) replicaPhase(c config) (_ *replicaResult, err error) {
	tmp, err := os.MkdirTemp("", "serveload-replica-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	lc := c
	lc.walDir, lc.serveWAL, lc.ckEvery = filepath.Join(tmp, "leader"), true, 0
	lb, err := openBackend(lc, io.Discard)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, lb.close()) }()
	leaderBase, stopLeader, err := serve("127.0.0.1:0", server.New(lb.Backend, server.Options{Replication: lb.leader}).Handler())
	if err != nil {
		return nil, err
	}
	defer stopLeader()

	fc := c
	fc.follower, fc.repDir = leaderBase, filepath.Join(tmp, "follower")
	fb, err := openBackend(fc, io.Discard)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, fb.close()) }()
	folSrv := server.New(fb.Backend, server.Options{})
	folBase, stopFol, err := serve("127.0.0.1:0", folSrv.Handler())
	if err != nil {
		return nil, err
	}
	defer stopFol()

	leaderReaders := c.readers / 2
	var leaderReads, folReads, writes atomic.Int64
	samples := loadgen.NewReservoir(1<<16, l.seed+2)
	p := newWorkers()
	p.loop(c.writers, func(w, i int) error {
		if _, err := l.observe(leaderBase, w+i*c.writers); err != nil {
			return err
		}
		writes.Add(1)
		return nil
	})
	p.loop(leaderReaders, func(r, i int) error {
		if err := l.read(leaderBase, r*7919+i*13, l.now); err != nil {
			return err
		}
		leaderReads.Add(1)
		return nil
	})
	p.loop(c.readers-leaderReaders, func(r, i int) error {
		t0 := time.Now()
		if err := l.read(folBase, (r+leaderReaders)*7919+i*13, l.now); err != nil {
			return err
		}
		samples.Observe(time.Since(t0))
		folReads.Add(1)
		return nil
	})
	if err := p.run(c.replicaDur); err != nil {
		return nil, err
	}
	if err := fb.follower.Err(); err != nil {
		return nil, fmt.Errorf("replication wedged during load: %w", err)
	}

	snap := folSrv.Metrics()
	secs := c.replicaDur.Seconds()
	qs := samples.Quantiles(0.50, 0.99)
	return &replicaResult{
		DurationMs:      float64(c.replicaDur.Milliseconds()),
		LeaderReads:     leaderReads.Load(),
		FollowerReads:   folReads.Load(),
		Writes:          writes.Load(),
		LeaderQPS:       float64(leaderReads.Load()) / secs,
		FollowerQPS:     float64(folReads.Load()) / secs,
		AggregateQPS:    float64(leaderReads.Load()+folReads.Load()) / secs,
		WriteQPS:        float64(writes.Load()) / secs,
		FollowerP50Us:   float64(qs[0].Microseconds()),
		FollowerP99Us:   float64(qs[1].Microseconds()),
		FollowerApplied: fb.follower.AppliedIndex(),
		FollowerLag:     uint64(snap.Gauge("replica/follower/lag")),
		BytesShipped:    snap.Counters["replica/follower/bytes_fetched"],
		Rebootstraps:    snap.Counters["replica/follower/rebootstraps"],
	}, nil
}
