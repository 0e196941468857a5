package propagation

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/xrand"
)

// Benchmarks comparing the epoch-stamped kernels against the frozen
// reference implementations (reference.go). cmd/benchjson runs the same
// comparison on a streaming replay and emits BENCH_propagation.json; CI
// runs these once (-benchtime=1x) as a smoke check.

const (
	benchNodes = 20000
	benchDeg   = 8
)

func benchSeeds(n, count int, seed uint64) []ids.UserID {
	rng := xrand.New(seed)
	out := make([]ids.UserID, count)
	for i := range out {
		out[i] = ids.UserID(rng.Intn(n))
	}
	return out
}

// BenchmarkPropagateKernel / Ref: one full Propagate per iteration on a
// graph large enough that the O(n) reset and sweep dominate the frontier
// work — the regime the epoch-stamped scratch eliminates.
func BenchmarkPropagateKernel(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	cfg := Config{Threshold: StaticThreshold(0.05), MaxIterations: 50}
	pr := New(g, cfg)
	seeds := benchSeeds(benchNodes, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Propagate(seeds, len(seeds))
	}
}

func BenchmarkPropagateRef(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	cfg := Config{Threshold: StaticThreshold(0.05), MaxIterations: 50}
	pr := NewRefPropagator(g, cfg)
	seeds := benchSeeds(benchNodes, 4, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr.Propagate(seeds, len(seeds))
	}
}

// BenchmarkAddSeedsKernel / Ref: a streaming replay — every iteration
// retires one tweet state and grows it seed by seed, the pattern Observe
// drives. The reference pays one map probe per visited edge; the kernel
// scatters once and probes arrays.
func benchAddSeeds[S any](b *testing.B, newState func() S, add func(st S, seeds []ids.UserID, pop int)) {
	b.Helper()
	seeds := benchSeeds(benchNodes, 16, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := newState()
		for j, s := range seeds {
			add(st, []ids.UserID{s}, j+1)
		}
	}
}

func BenchmarkAddSeedsKernel(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	inc := NewIncremental(g, Config{Threshold: StaticThreshold(1e-6), MaxIterations: 200})
	benchAddSeeds(b, NewTweetState, inc.AddSeeds)
}

func BenchmarkAddSeedsRef(b *testing.B) {
	g := randomSimGraph(benchNodes, benchDeg, 1)
	inc := NewRefIncremental(g, Config{Threshold: StaticThreshold(1e-6), MaxIterations: 200})
	benchAddSeeds(b, NewRefTweetState, inc.AddSeeds)
}
