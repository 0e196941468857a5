package simgraph

import (
	"testing"

	"repro/internal/ids"
	"repro/internal/propagation"
)

// TestResolveAuthorDedup is the regression test for the implicit-sharer
// bug: resolveLocked prepends the tweet's author as an implicit seed on
// first touch, and used to do so even when the author was already among
// the batch's sharers (an author retweeting their own thread), seeding
// the first propagation twice. The seed list must carry the author
// exactly once, and the resulting fixpoint must be bit-identical to the
// frozen reference propagator fed the deduplicated seed set.
func TestResolveAuthorDedup(t *testing.T) {
	ds, ctx := recommenderWorld(t)
	r := NewRecommender(DefaultRecommenderConfig())
	if err := r.Init(ctx); err != nil {
		t.Fatal(err)
	}

	// A tweet whose author has influence in the similarity graph, so the
	// propagation actually reaches someone.
	var tw ids.TweetID
	var author ids.UserID
	found := false
	for ti, tweet := range ds.Tweets {
		if r.Graph().InDegree(tweet.Author) > 0 {
			tw, author, found = ids.TweetID(ti), tweet.Author, true
			break
		}
	}
	if !found {
		t.Skip("no influential author in tiny graph")
	}
	other := author + 1
	if int(other) >= ds.NumUsers() {
		other = 0
	}
	now := ds.Tweets[tw].Time + ids.Minute

	// The batch already contains the author alongside another sharer.
	r.mu.Lock()
	r.counts[tw] = 2
	task, ok := r.resolveLocked(tw, []ids.UserID{author, other}, now)
	r.mu.Unlock()
	if !ok {
		t.Fatal("resolveLocked refused a fresh tweet")
	}
	seen := 0
	for _, u := range task.st.newSeeds {
		if u == author {
			seen++
		}
	}
	if seen != 1 {
		t.Fatalf("author appears %d times in the resolved seed batch %v", seen, task.st.newSeeds)
	}

	inc := r.getInc()
	r.propagate(inc, task)
	r.putInc(inc)

	ref := propagation.NewRefIncremental(r.Graph(), r.cfg.Prop)
	refState := propagation.NewRefTweetState()
	ref.AddSeeds(refState, []ids.UserID{author, other}, 2)

	got := task.st.Scores()
	if len(got) != len(refState.P) {
		t.Fatalf("fixpoint size %d, reference %d", len(got), len(refState.P))
	}
	for u, p := range refState.P {
		if q, ok := got[u]; !ok || q != p {
			t.Fatalf("P[%d] = %v, reference %v", u, q, p)
		}
	}

	// The implicit prepend itself still works: a batch without the author
	// gains them at the front.
	var tw2 ids.TweetID
	found = false
	for ti := int(tw) + 1; ti < len(ds.Tweets); ti++ {
		if ds.Tweets[ti].Author != other {
			tw2, found = ids.TweetID(ti), true
			break
		}
	}
	if !found {
		t.Skip("no second tweet available")
	}
	r.mu.Lock()
	r.counts[tw2] = 1
	task2, ok := r.resolveLocked(tw2, []ids.UserID{other}, ds.Tweets[tw2].Time+ids.Minute)
	r.mu.Unlock()
	if !ok {
		t.Fatal("resolveLocked refused the second tweet")
	}
	seeds := task2.st.newSeeds
	task2.st.Unlock()
	if len(seeds) != 2 || seeds[0] != ds.Tweets[tw2].Author || seeds[1] != other {
		t.Fatalf("implicit author prepend broken: %v", seeds)
	}
}
