package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"

	"repro"
	"repro/internal/server"
)

// tinyConfig runs a workload at a size that finishes in about a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.Workload = workload
	cfg.Seed = 7
	cfg.Trace = trace
	cfg.WorkDir = t.TempDir()
	cfg.TraceOut = cfg.WorkDir + "/trace.csv"
	cfg.Users = 300
	cfg.Warmup = 500
	cfg.SetupRuns = 1
	cfg.Duration = 300 * time.Millisecond
	cfg.HTTPWarmup = 50 * time.Millisecond
	cfg.PaceRPS = 200
	cfg.RefreshEvery = 100 * time.Millisecond
	cfg.GateUsers = 20
	return cfg
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for w := range workloads {
		known = append(known, w)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
	}
	for i := range names {
		if names[i] != known[i] {
			t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, known)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func sameMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", what, len(got), len(want))
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			t.Errorf("%s: %s not emitted", what, name)
			continue
		}
		if m.Unit != unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(tinyConfig(t, name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v",
					name, trace, res.Correct, res.Attempted, res.Failed, res.Problems)
			}
			sameMetrics(t, name, res.EndToEnd, endToEnd)
			for m, v := range res.EndToEnd {
				if v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
				}
			}
			if trace {
				sameMetrics(t, name+" traced", res.PerLayer, perLayer)
			}
		}
	}
}

// alteredBackend serves a wrong score for one user.
type alteredBackend struct {
	server.Backend
	victim repro.UserID
}

func (b alteredBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	recs, cold := b.Backend.RecommendWithColdStart(u, k, now)
	if u == b.victim && len(recs) > 0 {
		recs = append([]repro.Recommendation(nil), recs...)
		recs[0].Score *= 1 + 1e-12
	}
	return recs, cold
}

func TestGateFiresOnAlteredAnswer(t *testing.T) {
	cfg := tinyConfig(t, "timeline-read", false)
	in, err := makeInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := setUp(cfg, workloads[cfg.Workload], in, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	last := in.warmup[len(in.warmup)-1]
	if err := st.eng.Observe(last.User, last.Tweet, last.Time); err != nil {
		t.Fatal(err)
	}
	now := last.Time + 1
	var victim repro.UserID
	found := false
	for _, u := range in.gate {
		if recs, _ := st.eng.RecommendWithColdStart(u, listLen, now); len(recs) > 0 {
			victim, found = u, true
			break
		}
	}
	if !found {
		t.Fatal("no sampled user has recommendations")
	}

	check := func(b server.Backend) error {
		srv := server.New(b, server.Options{})
		defer srv.Close()
		base, stop, err := serve(srv.Handler())
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		c := newClient(base)
		defer c.close()
		if !c.observe(in.stream[0]) {
			t.Fatal("observe failed")
		}
		_, _, err = checkServed(c.c, base, in.gate, st.eng.RecommendWithColdStart)
		return err
	}
	if err := check(server.ForEngine(st.eng)); err != nil {
		t.Fatalf("gate fails on the unaltered server: %v", err)
	}
	if err := check(alteredBackend{Backend: server.ForEngine(st.eng), victim: victim}); err == nil {
		t.Fatal("gate passed a served answer with an altered score")
	}

	// The replay gate compares the live answers with a serial replay of
	// the observed log; an altered live answer must fail it too.
	log := st.eng.ObservedActions()
	now = log[len(log)-1].Time + 1
	live := st.eng.RecommendWithColdStart
	if err := checkReplay(in.ds, in.opts, log, in.gate, now, live); err != nil {
		t.Fatalf("replay gate fails on the unaltered engine: %v", err)
	}
	altered := alteredBackend{Backend: server.ForEngine(st.eng), victim: victim}
	if err := checkReplay(in.ds, in.opts, log, in.gate, now, altered.RecommendWithColdStart); err == nil {
		t.Fatal("replay gate passed an altered answer")
	}
}

// TestTracedWALKeepsBufferedPath pins that the engine, handed the
// wrapped WAL, still appends under its lock and waits for durability
// after it, as it does with the bare WAL.
func TestTracedWALKeepsBufferedPath(t *testing.T) {
	cfg := tinyConfig(t, "ingest", true)
	in, err := makeInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	st, err := setUp(cfg, workloads[cfg.Workload], in, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer st.close()
	count := map[spanKind]int{}
	spans, _ := tr.snapshot()
	for _, s := range spans {
		count[s.Kind]++
	}
	if count[kindAppendBuffered] != len(in.warmup)-1 || count[kindAppend] != 0 || count[kindSyncWait] == 0 {
		t.Fatalf("span counts %v: want %d buffered appends, no plain appends, and sync waits",
			count, len(in.warmup)-1)
	}
}

// TestExhaustedStreamFailsTheRun pins the stream discipline: writers
// never wrap, and a run that reaches the end of its stream is reported
// as not correct rather than padded.
func TestExhaustedStreamFailsTheRun(t *testing.T) {
	cfg := tinyConfig(t, "ingest", false)
	in, err := makeInputs(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Warmup += len(in.stream) - 20
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Consumed != res.StreamLen || res.StreamLen != 20 {
		t.Fatalf("correct=%v consumed=%d of %d, problems=%v", res.Correct, res.Consumed, res.StreamLen, res.Problems)
	}
}

// TestRefreshWindowsLeftOutOfPerWriteRatios pins how a refresh's replay
// is kept out of the per-write figures: each refresh window is clipped
// to the timed phase, a refresh still running at its end included, and
// its growth is subtracted from the phase's.
func TestRefreshWindowsLeftOutOfPerWriteRatios(t *testing.T) {
	t0 := time.Now()
	at := func(sec int, hooks int64) *sample {
		return &sample{at: t0.Add(time.Duration(sec) * time.Second), hooks: hooks}
	}
	from, to := at(1, 10), at(10, 400)
	r := &refresher{windows: []window{
		{start: at(0, 0), end: at(2, 50)},      // began before the phase: 10 -> 50
		{start: at(4, 100), end: at(5, 200)},   // inside: 100 -> 200
		{start: at(9, 300)},                    // still running at the end: 300 -> 400
		{start: at(11, 500), end: at(12, 600)}, // after the phase
	}}
	li := layerInputs{before: *from, after: *to, refreshes: r.within(*from, *to)}
	if len(li.refreshes) != 3 {
		t.Fatalf("%d windows inside the phase, want 3", len(li.refreshes))
	}
	if got := li.outside(func(s sample) float64 { return float64(s.hooks) }); got != 390-240 {
		t.Fatalf("growth outside refreshes = %v, want %v", got, 390-240)
	}
}
