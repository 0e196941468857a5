package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// config is one benchmark run. defaultConfig holds the sizes the
// committed BENCHMARK.json is measured at; the self-test shrinks them.
type config struct {
	Workload string
	Seed     uint64
	Duration time.Duration
	Trace    bool
	WorkDir  string
	TraceOut string

	// Users sizes the generated dataset.
	Users int
	// Warmup is the in-process prefix of the test split applied with
	// ObserveBatch before timing: about one 72 h freshness window, so
	// reads see real candidate pools instead of empty ones.
	Warmup int
	// SetupRuns is how many times a run builds and warms the engine;
	// setup_s is the median.
	SetupRuns int
	// PaceRPS is the feed-mixed writer's fixed open-loop rate, well under
	// the write capacity the ingest workload measures. It is an assumed
	// load, not one taken from measured traffic.
	PaceRPS float64
	// RefreshEvery is the feed-mixed refresher's period: the 10 s of the
	// README's serving example (the engine's default is no refresher).
	RefreshEvery time.Duration
	// GateUsers is the size of the correctness sample.
	GateUsers int
	// HTTPWarmup runs the workload unmeasured before timing, so the
	// server cache fills and connections are open when timing starts.
	HTTPWarmup time.Duration
}

func defaultConfig() config {
	return config{
		Users:        2000,
		Warmup:       16000,
		SetupRuns:    5,
		PaceRPS:      500,
		RefreshEvery: 10 * time.Second,
		GateUsers:    200,
		HTTPWarmup:   time.Second,
	}
}

const (
	// datasetSeed fixes the generated dataset: --seed varies the traffic
	// over it (which users are hot, the draw order, the gate sample).
	// Datasets from different generator seeds differ in size by about
	// 12%, which moved heap, set-up time and throughput by more than the
	// bounds.
	datasetSeed = 1
	// trainFrac is the temporal training share. The rest is the stream:
	// 249k actions at 2000 users, 233k after the warm-up, several times
	// what the fastest workload consumes in a run, so no run reaches its
	// end and no writer ever wraps.
	trainFrac = 0.5
	// listLen is the recommendation list length requested.
	listLen = 10
)

// workload is a traffic mix over two client connections (the box the
// benchmark targets has two CPUs; GOMAXPROCS stays at its default,
// which equals the CPU count).
type workload struct {
	readers int  // closed-loop GET /recommend connections
	writers int  // closed-loop POST /observe connections sharing one stream cursor
	paced   bool // one open-loop POST /observe connection at PaceRPS
	refresh bool // background UpdateIncremental refresher (see refresher)
	wal     bool // WAL at the deployment-default interval sync policy
}

func (w workload) conns() int {
	n := w.readers + w.writers
	if w.paced {
		n++
	}
	return n
}

// workloads: feed-mixed is the production shape (reads beside a paced
// write stream, so the cache barely hits and the write lock, propagation
// and refresh stall are in the read path); timeline-read has no writes,
// so the cache and cold-start aggregation are the only engine work left;
// ingest has no reads and measures write capacity through decode,
// batcher, WAL append, propagation and invalidation fan-out.
var workloads = map[string]workload{
	"feed-mixed":    {readers: 1, paced: true, refresh: true},
	"timeline-read": {readers: 2},
	"ingest":        {writers: 2, wal: true},
}

// inputs are the dataset, fixed, and the traffic over it, generated from
// the seed.
type inputs struct {
	ds     *repro.Dataset
	opts   repro.EngineOptions // paper defaults trained on the training split
	warmup []repro.Action
	stream []repro.Action // the test split after the warm-up prefix, in time order
	// activity weights which users readers ask for: each user's retweets
	// plus posts in the dataset, so the users who act the most read the
	// most and users who never act never read.
	activity []float64
	gate     []repro.UserID // correctness sample
}

func makeInputs(cfg config) (*inputs, error) {
	ds, err := gen.Generate(gen.DefaultConfig(cfg.Users, datasetSeed))
	if err != nil {
		return nil, fmt.Errorf("generating dataset: %w", err)
	}
	train, test, err := repro.SplitDataset(ds, trainFrac)
	if err != nil {
		return nil, fmt.Errorf("splitting dataset: %w", err)
	}
	if len(test) <= cfg.Warmup {
		return nil, fmt.Errorf("test split has %d actions, warm-up needs more than %d", len(test), cfg.Warmup)
	}
	opts := repro.DefaultEngineOptions()
	opts.Train = train
	in := &inputs{ds: ds, opts: opts, warmup: test[:cfg.Warmup], stream: test[cfg.Warmup:]}

	in.activity = make([]float64, ds.NumUsers())
	for _, a := range ds.Actions {
		in.activity[a.User]++
	}
	for _, t := range ds.Tweets {
		in.activity[t.Author]++
	}
	// Half the sample is drawn as the readers draw, half is uniform.
	rng := xrand.New(cfg.Seed ^ 0x9e3779b97f4a7c15)
	readers := xrand.NewWeightedChoice(rng, in.activity)
	for i := 0; i < cfg.GateUsers; i++ {
		if i%2 == 0 {
			in.gate = append(in.gate, repro.UserID(readers.Choose()))
		} else {
			in.gate = append(in.gate, repro.UserID(rng.Intn(ds.NumUsers())))
		}
	}
	return in, nil
}

// stack is one engine set up for a workload, with its WAL if it has one.
type stack struct {
	eng    *repro.Engine
	wal    *durable.WAL
	walDir string
	walReg *metrics.Registry
	build  time.Duration // WAL open + NewEngine
	warm   time.Duration // warm-up ObserveBatch calls
}

const warmupBatch = 512

// setUp builds the engine (opening its WAL first on ingest) and applies
// the warm-up prefix in-process, all but its last action: that one is
// sent over HTTP once the server is up, which sets the server's
// default-now watermark without applying anything twice.
func setUp(cfg config, wl workload, in *inputs, tr *tracer) (*stack, error) {
	st := &stack{}
	opts := in.opts
	start := time.Now()
	if wl.wal {
		dir, err := os.MkdirTemp(cfg.WorkDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("creating WAL directory: %w", err)
		}
		st.walDir = dir
		st.walReg = metrics.NewRegistry()
		st.wal, err = durable.OpenWAL(dir, durable.WALOptions{Sync: durable.SyncInterval, Metrics: st.walReg})
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("opening WAL: %w", err)
		}
		if tr != nil {
			opts.WAL = &tracedWAL{w: st.wal, tr: tr}
		} else {
			opts.WAL = st.wal
		}
	}
	eng, err := repro.NewEngine(in.ds, opts)
	if err != nil {
		st.close()
		return nil, fmt.Errorf("building engine: %w", err)
	}
	st.eng = eng
	st.build = time.Since(start)

	start = time.Now()
	pre := in.warmup[:len(in.warmup)-1]
	for i := 0; i < len(pre); i += warmupBatch {
		j := i + warmupBatch
		if j > len(pre) {
			j = len(pre)
		}
		for k, err := range eng.ObserveBatch(pre[i:j]) {
			if err != nil {
				st.close()
				return nil, fmt.Errorf("warm-up action %d: %w", i+k, err)
			}
		}
	}
	st.warm = time.Since(start)
	return st, nil
}

// close stops the engine's background work and removes the WAL.
func (st *stack) close() error {
	var err error
	if st.eng != nil {
		err = st.eng.Close()
	}
	if st.wal != nil {
		err = errors.Join(err, st.wal.Close())
		err = errors.Join(err, os.RemoveAll(st.walDir))
	}
	return err
}

// sample is the metrics the per-layer figures are computed from, read
// at one moment: the server's snapshot (which includes the engine's) and
// the score-change hook's traffic so far, in users named and nil (full)
// flushes (traced runs only).
type sample struct {
	at             time.Time
	m              metrics.Snapshot
	hooks, flushes int64
}

// refresher is feed-mixed's graph maintenance: RefreshGraph with the
// UpdateIncremental strategy every period, the call the engine's own
// RefreshEvery loop makes. The benchmark runs the loop itself for two
// reasons. Its first pass falls at a fixed offset, which run places in
// the middle of the timed phase, so every run of the default length sees
// one refresh at the same point whatever its set-up took. And it knows
// when a refresh runs: a refresh replays the live window into a new
// recommender that counts into the engine's rec/* counters and fires the
// score-change hook, so the per-layer figures keep those windows out of
// their per-write ratios. (The engine's loop also skips a pass while no
// profile is dirty, which never happens under a steady write stream.)
type refresher struct {
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	windows []window
}

// window is one refresh, from the sample taken before it to the one
// taken after it; end is nil while it runs.
type window struct{ start, end *sample }

func startRefresher(eng *repro.Engine, first, every time.Duration, take func() sample) *refresher {
	r := &refresher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		due := time.Now().Add(first)
		for {
			t := time.NewTimer(time.Until(due))
			select {
			case <-r.stop:
				t.Stop()
				return
			case <-t.C:
			}
			s := take()
			r.mu.Lock()
			r.windows = append(r.windows, window{start: &s})
			i := len(r.windows) - 1
			r.mu.Unlock()
			eng.RefreshGraph(repro.UpdateIncremental)
			e := take()
			r.mu.Lock()
			r.windows[i].end = &e
			r.mu.Unlock()
			// Like a ticker, drop the passes an overlong refresh missed.
			for due = due.Add(every); !due.After(time.Now()); due = due.Add(every) {
			}
		}
	}()
	return r
}

// close stops the loop, waiting for a refresh in progress to finish.
func (r *refresher) close() {
	close(r.stop)
	<-r.done
}

// within returns the refresh windows clipped to [from, to], as sample
// pairs; a refresh still running at to ends there.
func (r *refresher) within(from, to sample) [][2]sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out [][2]sample
	for _, w := range r.windows {
		a, b := *w.start, to
		if a.at.Before(from.at) {
			a = from
		}
		if w.end != nil && w.end.at.Before(to.at) {
			b = *w.end
		}
		if a.at.Before(b.at) {
			out = append(out, [2]sample{a, b})
		}
	}
	return out
}

// opStats is what one connection saw of one operation.
type opStats struct {
	lat       []int64 // ns per request (open loop: from its due time); failedLatency if it failed
	attempted int64
	failed    int64
}

func (o *opStats) ok() int64 { return o.attempted - o.failed }

func (o *opStats) add(other opStats) {
	o.lat = append(o.lat, other.lat...)
	o.attempted += other.attempted
	o.failed += other.failed
}

// phase is the outcome of the timed phase.
type phase struct {
	wall     time.Duration
	reads    opStats
	observes opStats // closed-loop writers
	paced    opStats // open-loop writer, timed from each request's due time
	lateness []int64 // open-loop writer: ns between due time and send
}

// client is one keep-alive HTTP connection.
type client struct {
	base string
	tr   *http.Transport
	c    *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, tr: tr, c: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

// recommend issues GET /recommend and drains the body; it reports the
// X-Cache verdict for tracing.
func (c *client) recommend(u repro.UserID) (ok bool, verdict string) {
	resp, err := c.c.Get(recommendURL(c.base, u))
	if err != nil {
		return false, ""
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode/100 == 2, resp.Header.Get("X-Cache")
}

// observe issues POST /observe for one action.
func (c *client) observe(a repro.Action) bool {
	b := make([]byte, 0, 64)
	b = append(b, `{"user":`...)
	b = strconv.AppendUint(b, uint64(a.User), 10)
	b = append(b, `,"tweet":`...)
	b = strconv.AppendUint(b, uint64(a.Tweet), 10)
	b = append(b, `,"time":`...)
	b = strconv.AppendInt(b, int64(a.Time), 10)
	b = append(b, '}')
	resp, err := c.c.Post(c.base+"/observe", "application/json", bytes.NewReader(b))
	if err != nil {
		return false
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode/100 == 2
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// stream hands out the test split after the warm-up prefix in time
// order, each action at most once; it never wraps.
type stream struct {
	actions   []repro.Action
	next      atomic.Int64
	exhausted atomic.Bool
}

func (s *stream) take() (repro.Action, bool) {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.actions)) {
		s.exhausted.Store(true)
		return repro.Action{}, false
	}
	return s.actions[i], true
}

// consumed is how many actions have been handed out.
func (s *stream) consumed() int {
	n := int(s.next.Load())
	if n > len(s.actions) {
		n = len(s.actions)
	}
	return n
}

// drive runs the workload's connections against base for d and waits
// for all of them. Writers take their actions from st.
func drive(cfg config, wl workload, in *inputs, st *stream, base string, d time.Duration, salt uint64, tr *tracer) phase {
	type result struct {
		reads, observes, paced opStats
		lateness               []int64
	}
	results := make([]result, wl.conns())
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	conn := 0
	for i := 0; i < wl.readers; i++ {
		res := &results[conn]
		rng := xrand.New(cfg.Seed*1000 + salt*10 + uint64(conn))
		conn++
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			pick := xrand.NewWeightedChoice(rng, in.activity)
			for time.Now().Before(deadline) {
				u := repro.UserID(pick.Choose())
				var id uint64
				if tr != nil {
					id = tr.beginRead(u)
				}
				t0 := time.Now()
				ok, verdict := c.recommend(u)
				t1 := time.Now()
				if tr != nil {
					tr.endRead(id, u, t0, t1, ok, verdict)
				}
				res.reads.record(t1.Sub(t0), ok)
			}
		}()
	}
	for i := 0; i < wl.writers; i++ {
		res := &results[conn]
		conn++
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			for time.Now().Before(deadline) {
				a, ok := st.take()
				if !ok {
					return
				}
				t0, t1, ok := postObserve(c, a, tr)
				res.observes.record(t1.Sub(t0), ok)
			}
		}()
	}
	if wl.paced {
		res := &results[conn]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(base)
			defer c.close()
			interval := time.Duration(float64(time.Second) / cfg.PaceRPS)
			for i := 0; ; i++ {
				due := start.Add(time.Duration(i) * interval)
				if !due.Before(deadline) {
					return
				}
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				a, ok := st.take()
				if !ok {
					return
				}
				t0, t1, ok := postObserve(c, a, tr)
				res.lateness = append(res.lateness, int64(t0.Sub(due)))
				res.paced.record(t1.Sub(due), ok)
			}
		}()
	}
	wg.Wait()

	ph := phase{wall: time.Since(start)}
	for _, r := range results {
		ph.reads.add(r.reads)
		ph.observes.add(r.observes)
		ph.paced.add(r.paced)
		ph.lateness = append(ph.lateness, r.lateness...)
	}
	return ph
}

func (o *opStats) record(d time.Duration, ok bool) {
	o.attempted++
	if !ok {
		o.failed++
		o.lat = append(o.lat, failedLatency)
		return
	}
	o.lat = append(o.lat, int64(d))
}

func postObserve(c *client, a repro.Action, tr *tracer) (t0, t1 time.Time, ok bool) {
	var id uint64
	if tr != nil {
		id = tr.beginObserve(a)
	}
	t0 = time.Now()
	ok = c.observe(a)
	t1 = time.Now()
	if tr != nil {
		tr.endObserve(id, a, t0, t1, ok)
	}
	return t0, t1, ok
}

// serve mounts h on a loopback listener; stop shuts it down and waits
// for the serving goroutine to return.
func serve(h http.Handler) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listening: %w", err)
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) {
			err = errors.Join(err, serr)
		}
		return err
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// medianDuration returns the median of ds (the upper middle for even
// lengths).
func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
