package propagation

import (
	"math"
	"testing"

	"repro/internal/ids"
	"repro/internal/wgraph"
)

// growingView wraps a frozen graph but reports a mutable node count, the
// way an overlay whose base was swapped for a bigger graph would. Nodes
// beyond the base have no edges.
type growingView struct {
	base *wgraph.Graph
	n    int
}

func (v *growingView) NumNodes() int { return v.n }
func (v *growingView) NumEdges() int { return v.base.NumEdges() }

func (v *growingView) Out(u ids.UserID) ([]ids.UserID, []float32) {
	if int(u) >= v.base.NumNodes() {
		return nil, nil
	}
	return v.base.Out(u)
}

func (v *growingView) In(u ids.UserID) ([]ids.UserID, []float32) {
	if int(u) >= v.base.NumNodes() {
		return nil, nil
	}
	return v.base.In(u)
}

var _ wgraph.View = (*growingView)(nil)

// Regression: Propagate used to size its dense scratch once at New and
// then index it with the view's *current* NumNodes, so a view that grew
// made pr.p[s] panic. The scratch must regrow defensively.
func TestPropagateSurvivesGrownView(t *testing.T) {
	base := paperGraph()
	gv := &growingView{base: base, n: base.NumNodes()}
	pr := New(gv, DefaultConfig())

	before := pr.Propagate([]ids.UserID{nodeX}, 1)
	if before.Len() == 0 {
		t.Fatal("propagation over base reached nobody")
	}

	// The view grows beyond the scratch allocated at New time; seeding one
	// of the new (edgeless) nodes exercises every indexed access.
	gv.n = base.NumNodes() + 7
	grown := ids.UserID(base.NumNodes() + 3)
	res := pr.Propagate([]ids.UserID{nodeX, grown}, 2)
	if res.Len() == 0 {
		t.Fatal("propagation over grown view reached nobody")
	}
	for i, u := range res.Users {
		if u == grown {
			t.Fatalf("edgeless grown seed %d scored %v", u, res.Scores[i])
		}
	}

	// Shrinking back must not leak stale tail state into the results.
	gv.n = base.NumNodes()
	again := pr.Propagate([]ids.UserID{nodeX}, 1)
	if again.Len() != before.Len() {
		t.Fatalf("results changed after grow/shrink cycle: %d vs %d users", again.Len(), before.Len())
	}
	for i := range again.Users {
		if again.Users[i] != before.Users[i] || math.Abs(again.Scores[i]-before.Scores[i]) > 1e-12 {
			t.Fatalf("score drift after grow/shrink: %v vs %v", again, before)
		}
	}
}

// Rebind must regrow scratch and produce the same result a fresh
// propagator over the new graph would.
func TestRebindMatchesFresh(t *testing.T) {
	small := paperGraph()
	big := randomSimGraph(200, 6, 42)

	pr := New(small, DefaultConfig())
	pr.Propagate([]ids.UserID{nodeX}, 1) // dirty the scratch

	pr.Rebind(big)
	got := pr.Propagate([]ids.UserID{3, 17}, 2)

	fresh := New(big, DefaultConfig())
	want := fresh.Propagate([]ids.UserID{3, 17}, 2)

	if got.Len() != want.Len() {
		t.Fatalf("rebound propagator reached %d users, fresh reached %d", got.Len(), want.Len())
	}
	for i := range got.Users {
		if got.Users[i] != want.Users[i] || math.Abs(got.Scores[i]-want.Scores[i]) > 1e-12 {
			t.Fatalf("rebound result diverges at %d: %v vs %v", i, got.Users[i], want.Users[i])
		}
	}
}

func TestSchedulerDrop(t *testing.T) {
	s := NewScheduler(ids.Minute, ids.Hour, 12)
	s.Observe(1, 10, 0, 1)
	s.Observe(2, 11, 0, 1)
	s.Observe(3, 12, 0, 1)

	s.Drop(2)
	if s.Pending() != 2 {
		t.Fatalf("pending = %d after drop, want 2", s.Pending())
	}
	s.Drop(2) // dropping twice is a no-op
	s.Drop(99)

	got := s.Due(2 * ids.Hour)
	if len(got) != 2 {
		t.Fatalf("flushed %d batches, want 2", len(got))
	}
	for _, b := range got {
		if b.Tweet == 2 {
			t.Fatal("dropped tweet still flushed")
		}
	}
}

// AddSeeds must regrow its dense scratch (the score vector and the
// position index) when the view grows between calls on one state, and
// still land exactly on the reference fixpoint.
func TestAddSeedsSurvivesGrownView(t *testing.T) {
	base := paperGraph()
	gv := &growingView{base: base, n: base.NumNodes()}
	cfg := Config{Threshold: StaticThreshold(1e-12), MaxIterations: 300}
	inc := NewIncremental(gv, cfg)
	ref := NewRefIncremental(gv, cfg)
	st, rst := NewTweetState(), NewRefTweetState()

	inc.AddSeeds(st, []ids.UserID{nodeX}, 1)
	ref.AddSeeds(rst, []ids.UserID{nodeX}, 1)
	gv.n = base.NumNodes() + 7
	grown := ids.UserID(base.NumNodes() + 5)
	inc.AddSeeds(st, []ids.UserID{grown, nodeX}, 2)
	ref.AddSeeds(rst, []ids.UserID{grown, nodeX}, 2)
	if !sameAsRef(st, rst) {
		t.Fatalf("state after growth %v (seeds %v), reference %v", st.Scores(), st.Seeds(), rst.P)
	}
	if got := st.Seeds(); len(got) != 2 || got[1] != grown {
		t.Fatalf("seeds %v, want [%d %d]", got, nodeX, grown)
	}
}
