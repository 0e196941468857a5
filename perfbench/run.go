package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/server"
)

// result is one run's verdict and metrics.
type result struct {
	Correct   bool
	Attempted int64
	Failed    int64
	EndToEnd  map[string]metric
	PerLayer  map[string]metric // traced runs only
	ByOp      map[string]float64
	Problems  []string // why Correct is false
	StreamLen int
	Consumed  int
}

// run executes one workload: set-up trials, the timed phase over HTTP,
// the correctness gate, and the metrics.
func run(cfg config) (*result, error) {
	wl := workloads[cfg.Workload]
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	in, err := makeInputs(cfg)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}

	// Set up SetupRuns times from the same inputs and keep the last.
	var st *stack
	var setups, builds, warms []time.Duration
	for i := 0; i < cfg.SetupRuns; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("closing set-up trial: %w", err)
			}
			st = nil
		}
		runtime.GC()
		if st, err = setUp(cfg, wl, in, tr); err != nil {
			return nil, err
		}
		builds = append(builds, st.build)
		warms = append(warms, st.warm)
		setups = append(setups, st.build+st.warm)
	}
	defer st.close()

	var backend server.Backend = server.ForEngine(st.eng)
	if tr != nil {
		backend = &tracedBackend{Backend: backend, tr: tr}
	}
	srv := server.New(backend, server.Options{})
	defer srv.Close()
	base, stop, err := serve(srv.Handler())
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			stop()
		}
	}()
	c := newClient(base)
	defer c.close()
	// The last warm-up action goes over HTTP: it sets the server's
	// default-now watermark, which only HTTP writes advance.
	if !c.observe(in.warmup[len(in.warmup)-1]) {
		return nil, errors.New("priming the server watermark failed")
	}

	take := func() sample {
		s := sample{at: time.Now(), m: srv.Metrics()}
		if tr != nil {
			s.hooks, s.flushes = tr.invalidated.Load(), tr.fullFlushes.Load()
		}
		return s
	}
	var rf *refresher
	if wl.refresh {
		// The first refresh falls in the middle of the timed phase.
		rf = startRefresher(st.eng, cfg.HTTPWarmup+cfg.Duration/2, cfg.RefreshEvery, take)
		defer func() {
			if rf != nil {
				rf.close()
			}
		}()
	}
	feed := &stream{actions: in.stream}
	pre := drive(cfg, wl, in, feed, base, cfg.HTTPWarmup, 0, tr)

	before := take()
	walBefore := st.walReg.Snapshot()
	ph := drive(cfg, wl, in, feed, base, cfg.Duration, 1, tr)
	after := take()
	walAfter := st.walReg.Snapshot()

	// Stop the refresher and the engine's background work: from here on
	// the engine is fixed.
	var refreshes [][2]sample
	if rf != nil {
		rf.close()
		refreshes = rf.within(before, after)
		rf = nil
	}
	if err := st.eng.Close(); err != nil {
		return nil, fmt.Errorf("stopping engine: %w", err)
	}

	res := &result{
		Attempted: ph.reads.attempted + ph.observes.attempted + ph.paced.attempted,
		Failed:    ph.reads.failed + ph.observes.failed + ph.paced.failed,
		StreamLen: len(in.stream),
		Consumed:  feed.consumed(),
	}
	if n := pre.reads.failed + pre.observes.failed + pre.paced.failed; n > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%d requests failed during the HTTP warm-up", n))
	}
	if feed.exhausted.Load() {
		res.Problems = append(res.Problems, fmt.Sprintf("the writers reached the end of the %d-action stream", len(in.stream)))
	}

	okWrites := pre.observes.ok() + ph.observes.ok()
	e2e := endToEnd(ph, setups)
	res.ByOp = byOp(ph)
	res.ByOp["error_frac"] = ratio(float64(res.Failed), float64(res.Attempted))
	if tr != nil {
		spans, links := tr.snapshot()
		res.PerLayer = perLayer(layerInputs{
			ph: ph, spans: spans, links: links, from: tr.at(before.at), to: tr.at(after.at),
			before: before, after: after, refreshes: refreshes, walBefore: walBefore, walAfter: walAfter,
			build: medianDuration(builds), warm: medianDuration(warms), warmActions: len(in.warmup) - 1,
		})
		if err := tr.writeFile(cfg.TraceOut); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	// The live heap is the engine's and the server's, plus the inputs,
	// which are the same in every run: the per-request latencies the
	// benchmark kept are released first, so a faster server does not
	// report a larger heap. A traced run's heap also holds its spans.
	pre, ph = phase{}, phase{}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_mb"] = float64(ms.HeapAlloc) / 1e6
	res.EndToEnd = withUnits(endToEndMetrics, e2e)

	now, _, err := checkServed(c.c, base, in.gate, st.eng.RecommendWithColdStart)
	if err != nil {
		res.Problems = append(res.Problems, "served answer differs from the engine: "+err.Error())
	}
	// Without a refresher the observed log is never compacted, so it must
	// hold exactly the accepted writes and replay to the same state.
	if !wl.refresh && wl.writers > 0 && err == nil {
		log := st.eng.ObservedActions()
		applied := len(in.warmup) + int(okWrites)
		if len(log) != applied {
			res.Problems = append(res.Problems, fmt.Sprintf("engine observed %d actions, %d were accepted", len(log), applied))
		} else if err := checkReplay(in.ds, in.opts, log, in.gate, now, st.eng.RecommendWithColdStart); err != nil {
			res.Problems = append(res.Problems, "live engine differs from a serial replay: "+err.Error())
		}
	}
	stopped = true
	if err := stop(); err != nil {
		return nil, fmt.Errorf("stopping server: %w", err)
	}
	res.Correct = len(res.Problems) == 0
	return res, nil
}
