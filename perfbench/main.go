// Command perfbench is the repository's benchmark: a single-process load
// generator that mounts internal/server over a repro.Engine on a
// loopback listener and drives one named workload over HTTP.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload feed-mixed|timeline-read|ingest \
//	    --seed N --seconds S --trace 0|1
//
// Every run generates the same dataset (its generator seed is fixed)
// and, from --seed, the traffic over it and the correctness sample. It
// sets the engine up several times (setup_s is the median), warms it
// with an in-process prefix of the test split, measures for --seconds,
// and then checks the served answers against the engine itself (and, on
// ingest, against a fresh engine that replays the observed log
// serially). The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{name:{"value":v,"unit":u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run wraps the server's Backend and the engine's WAL to record spans
// and reports the per-layer metrics instead. The lines before it record
// the environment (cpus, gomaxprocs, Go version, seed, connections) and
// the per-operation split of the end-to-end numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	cfg := defaultConfig()
	var seconds float64
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "workload: feed-mixed, timeline-read or ingest")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "seed for the traffic and the correctness sample (the dataset is fixed)")
	flag.Float64Var(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&cfg.WorkDir, "workdir", ".bench_build", "directory for WAL scratch and trace files")
	flag.Parse()
	cfg.Duration = time.Duration(seconds * float64(time.Second))
	cfg.Trace = trace != 0
	if _, ok := workloads[cfg.Workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.Workload)
		os.Exit(2)
	}
	if cfg.Trace {
		cfg.TraceOut = filepath.Join(cfg.WorkDir, "traces", fmt.Sprintf("%s-seed%d.csv", cfg.Workload, cfg.Seed))
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
	}
	env, _ := json.Marshal(map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Duration.Seconds(),
		"trace":      cfg.Trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"conns":      workloads[cfg.Workload].conns(),
		"users":      cfg.Users,
		"stream":     res.StreamLen,
		"consumed":   res.Consumed,
	})
	fmt.Printf("env %s\n", env)
	byOp, _ := json.Marshal(res.ByOp)
	fmt.Printf("by-op %s\n", byOp)
	if cfg.Trace {
		e2e, _ := json.Marshal(res.EndToEnd)
		fmt.Printf("traced-end-to-end %s\n", e2e)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.EndToEnd}
	if cfg.Trace {
		out.Metrics = res.PerLayer
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
