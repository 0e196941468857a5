package propagation

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/wgraph"
	"repro/internal/xrand"
)

// Differential tests pinning the epoch-stamped kernels to the frozen
// reference implementations (reference.go) and the literal Algorithm 1
// (DensePropagate). The kernels recompute scores in exactly the same
// order as the references, so the comparisons are exact, not tolerance-
// based — any drift means the kernel changed the arithmetic, not just
// the bookkeeping.

func refResultMap(res Result) map[ids.UserID]float64 {
	m := make(map[ids.UserID]float64, res.Len())
	for i, u := range res.Users {
		m[u] = res.Scores[i]
	}
	return m
}

// sameAsRef reports whether st holds exactly the reference state's
// scores and seed set, read through TweetState's accessors.
func sameAsRef(st *TweetState, rst *RefTweetState) bool {
	got := st.Scores()
	if len(got) != len(rst.P) || len(st.Seeds()) != len(rst.Seeds) {
		return false
	}
	for u, p := range rst.P {
		if q, ok := got[u]; !ok || q != p {
			return false
		}
	}
	for _, u := range st.Seeds() {
		if _, ok := rst.Seeds[u]; !ok {
			return false
		}
	}
	return true
}

// TestPropagateMatchesRefAcrossReuse: one epoch-stamped Propagator reused
// (and rebound) across many graphs and seed sets must return exactly what
// a fresh reference propagator returns each time — catching any state
// leaking across epochs.
func TestPropagateMatchesRefAcrossReuse(t *testing.T) {
	cfg := Config{Threshold: StaticThreshold(1e-9), MaxIterations: 300, MinScore: 0}
	pr := New(randomSimGraph(10, 2, 1), cfg)
	f := func(seed uint64) bool {
		n := 20 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		rng := xrand.New(seed ^ 5)
		seeds := []ids.UserID{
			ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n)), ids.UserID(rng.Intn(n + 10)),
		}
		pr.Rebind(g)
		got := pr.Propagate(seeds, len(seeds))
		want := NewRefPropagator(g, cfg).Propagate(seeds, len(seeds))
		if len(got.Users) != len(want.Users) {
			return false
		}
		for i := range got.Users {
			if got.Users[i] != want.Users[i] || got.Scores[i] != want.Scores[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalMatchesRefExact: the epoch-stamped AddSeeds processes the
// same queue in the same order with the same float additions as the
// reference, so the sparse states must stay bit-identical across a whole
// sequence of calls. Changed is compared as a set (the reference emits it
// in map order), and ChangedScores must carry each changed user's final
// reference score.
func TestIncrementalMatchesRefExact(t *testing.T) {
	f := func(seed uint64) bool {
		n := 20 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		cfg := Config{Threshold: StaticThreshold(1e-10), MaxIterations: 300}
		inc := NewIncremental(g, cfg)
		ref := NewRefIncremental(g, cfg)
		st, rst := NewTweetState(), NewRefTweetState()
		rng := xrand.New(seed ^ 7)
		for call := 0; call < 6; call++ {
			batch := make([]ids.UserID, 1+rng.Intn(3))
			for i := range batch {
				batch[i] = ids.UserID(rng.Intn(n + 5)) // occasionally out of range
			}
			inc.AddSeeds(st, batch, call+1)
			ref.AddSeeds(rst, batch, call+1)
			if !sameAsRef(st, rst) {
				return false
			}
			if len(st.Changed) != len(rst.Changed) || len(st.ChangedScores) != len(st.Changed) {
				return false
			}
			set := make(map[ids.UserID]bool, len(st.Changed))
			for i, u := range st.Changed {
				if st.ChangedScores[i] != rst.P[u] {
					return false
				}
				set[u] = true
			}
			for _, u := range rst.Changed {
				if !set[u] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestIncrementalScratchReuseAcrossTweets interleaves one Incremental
// across many tweet states: dense scratch from one tweet's call must
// never bleed into another tweet's fixpoint.
func TestIncrementalScratchReuseAcrossTweets(t *testing.T) {
	const n, tweets = 50, 8
	g := randomSimGraph(n, 4, 17)
	cfg := Config{Threshold: StaticThreshold(1e-10), MaxIterations: 300}
	inc := NewIncremental(g, cfg)
	shared := make([]*TweetState, tweets)
	isolated := make([]*TweetState, tweets)
	for i := range shared {
		shared[i] = NewTweetState()
		isolated[i] = NewTweetState()
	}
	rng := xrand.New(23)
	for call := 0; call < 40; call++ {
		tw := call % tweets
		s := ids.UserID(rng.Intn(n))
		inc.AddSeeds(shared[tw], []ids.UserID{s}, call+1)
		// A private propagator per tweet cannot suffer cross-tweet leaks.
		NewIncremental(g, cfg).AddSeeds(isolated[tw], []ids.UserID{s}, call+1)
	}
	for tw := range shared {
		got, want := shared[tw].Scores(), isolated[tw].Scores()
		if len(got) != len(want) {
			t.Fatalf("tweet %d: %d scored users vs %d isolated", tw, len(got), len(want))
		}
		for u, p := range want {
			if got[u] != p {
				t.Fatalf("tweet %d user %d: %v vs isolated %v", tw, u, got[u], p)
			}
		}
	}
}

// TestIncrementalStats: the per-call counters must reflect actual work.
func TestIncrementalStats(t *testing.T) {
	g := paperGraph()
	inc := NewIncremental(g, Config{Threshold: StaticThreshold(0), MaxIterations: 100})
	st := NewTweetState()
	inc.AddSeeds(st, []ids.UserID{nodeX}, 1)
	if inc.LastRecomputed() == 0 {
		t.Error("LastRecomputed = 0 after a propagation that changed scores")
	}
	if inc.LastRounds() < 2 {
		t.Errorf("LastRounds = %d, want >= 2 (x reaches u through w)", inc.LastRounds())
	}
	inc.AddSeeds(st, nil, 1)
	if inc.LastRecomputed() != 0 || inc.LastRounds() != 0 {
		t.Errorf("empty batch did work: recomputed=%d rounds=%d", inc.LastRecomputed(), inc.LastRounds())
	}
}

// TestEpochMarksWrap: after 2^32 resets the epoch counter wraps; the
// hard-clear must forget every stale stamp.
func TestEpochMarksWrap(t *testing.T) {
	var m epochMarks
	m.reset(4)
	m.add(2)
	m.epoch = ^uint32(0) // force the next reset to wrap
	m.reset(4)
	if m.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", m.epoch)
	}
	for u := ids.UserID(0); u < 4; u++ {
		if m.has(u) {
			t.Fatalf("stale mark on %d survived the wrap", u)
		}
	}
	m.add(1)
	if !m.has(1) || m.has(0) {
		t.Fatal("marks broken after wrap")
	}

	var v epochVec
	v.reset(3)
	v.set(1, 0.5)
	v.reset(3)
	if v.get(1) != 0 {
		t.Fatal("epochVec value survived reset")
	}
	if !v.set(1, 0.25) {
		t.Fatal("set after reset must report first touch")
	}
	if v.set(1, 0.75) {
		t.Fatal("second set must not report first touch")
	}

	var sv stateVec
	sv.reset(3)
	sv.load(2, 7, 0.5)
	sv.epoch = ^uint32(0) // force the next reset to wrap
	sv.reset(3)
	if sv.epoch != 1 || sv.get(2) != 0 {
		t.Fatalf("stateVec kept score %v after the wrap (epoch %d)", sv.get(2), sv.epoch)
	}
	sv.set(2, 0.25)
	if s := sv.slot[2]; s.pos != -1 || s.p != 0.25 {
		t.Fatalf("first set after reset = %+v, want pos -1 and p 0.25", s)
	}
}

// FuzzPropagate pins the epoch-stamped Propagator to the literal
// Algorithm 1 oracle across fuzzer-chosen graphs and seed sets, reusing
// one propagator across runs the way the serving path does.
func FuzzPropagate(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(9))
	f.Add(uint64(42), uint8(0), uint8(0))
	f.Add(uint64(977), uint8(200), uint8(55))
	cfg := Config{Threshold: StaticThreshold(1e-12), MaxIterations: 500, MinScore: 0}
	pr := New(randomSimGraph(5, 2, 3), cfg)
	f.Fuzz(func(t *testing.T, seed uint64, s1, s2 uint8) {
		n := 10 + int(seed%50)
		g := randomSimGraph(n, 3, seed)
		seeds := []ids.UserID{ids.UserID(int(s1) % (n + 5)), ids.UserID(int(s2) % (n + 5))}
		pr.Rebind(g)
		res := pr.Propagate(seeds, len(seeds))
		got := refResultMap(res)
		dense, _ := DensePropagate(g, seeds, 1e-12, 500)
		isSeed := map[ids.UserID]bool{}
		for _, s := range seeds {
			if int(s) < n {
				isSeed[s] = true
			}
		}
		for u := 0; u < n; u++ {
			if isSeed[ids.UserID(u)] {
				continue
			}
			if math.Abs(dense[u]-got[ids.UserID(u)]) > 1e-6 {
				t.Fatalf("node %d: kernel %v vs dense %v", u, got[ids.UserID(u)], dense[u])
			}
		}
	})
}

// FuzzIncremental drives multi-call AddSeeds sequences against both the
// frozen reference (exact) and the dense oracle (tolerance), with seed
// IDs that may fall outside the graph.
func FuzzIncremental(f *testing.F) {
	f.Add(uint64(7), uint8(1), uint8(2), uint8(3))
	f.Add(uint64(99), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(31337), uint8(255), uint8(17), uint8(64))
	f.Fuzz(func(t *testing.T, seed uint64, a, b, c uint8) {
		n := 10 + int(seed%40)
		g := randomSimGraph(n, 3, seed)
		cfg := Config{Threshold: StaticThreshold(1e-12), MaxIterations: 500}
		inc := NewIncremental(g, cfg)
		ref := NewRefIncremental(g, cfg)
		st, rst := NewTweetState(), NewRefTweetState()
		var all []ids.UserID
		for i, s := range []uint8{a, b, c} {
			u := ids.UserID(int(s) % (n + 5))
			inc.AddSeeds(st, []ids.UserID{u}, i+1)
			ref.AddSeeds(rst, []ids.UserID{u}, i+1)
			if int(u) < n {
				all = append(all, u)
			}
		}
		if !sameAsRef(st, rst) {
			t.Fatalf("kernel state %v (seeds %v), reference %v (seeds %v)", st.Scores(), st.Seeds(), rst.P, rst.Seeds)
		}
		if len(all) == 0 {
			return
		}
		dense, _ := DensePropagate(g, all, 1e-12, 1000)
		p := st.Scores()
		for u := 0; u < n; u++ {
			if _, isSeed := rst.Seeds[ids.UserID(u)]; isSeed {
				continue
			}
			if math.Abs(dense[u]-p[ids.UserID(u)]) > 1e-6 {
				t.Fatalf("node %d: incremental %v vs dense %v", u, p[ids.UserID(u)], dense[u])
			}
		}
	})
}

// TestLinearSystemIgnoresOutOfRangeSeeds: the §5.2 matrix construction
// must skip out-of-range seed IDs like the propagators do.
func TestLinearSystemIgnoresOutOfRangeSeeds(t *testing.T) {
	g := paperGraph()
	a, bvec, err := LinearSystem(g, []ids.UserID{nodeX, 99})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != g.NumNodes() || len(bvec) != g.NumNodes() {
		t.Fatalf("system size %dx%d", a.Rows, len(bvec))
	}
	// Only the in-range seed contributes a pinned row.
	if bvec[nodeX] != 1 {
		t.Error("in-range seed not pinned")
	}
	var _ = wgraph.View(g)
}
