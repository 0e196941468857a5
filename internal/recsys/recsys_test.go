package recsys

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/ids"
	"repro/internal/xrand"
)

func constPub(ids.TweetID) ids.Timestamp { return 0 }

func TestPoolBasics(t *testing.T) {
	p := NewPool([]ids.UserID{5, 9}, constPub, 100)
	if !p.Tracks(5) || p.Tracks(7) {
		t.Fatal("tracking set wrong")
	}
	p.Bump(5, 1, 0.5)
	p.Bump(5, 1, 0.3) // lower score must not overwrite
	p.Bump(5, 2, 0.9)
	p.Bump(7, 3, 1.0) // untracked: ignored
	top := p.TopK(5, 10, 50)
	if len(top) != 2 || top[0].Tweet != 2 || top[1].Tweet != 1 || top[1].Score != 0.5 {
		t.Fatalf("TopK = %+v", top)
	}
	if p.Size(5) != 2 || p.Size(9) != 0 || p.Size(7) != 0 {
		t.Error("sizes wrong")
	}
}

func TestPoolAddAccumulates(t *testing.T) {
	p := NewPool([]ids.UserID{1}, constPub, 100)
	p.Add(1, 7, 0.2)
	p.Add(1, 7, 0.3)
	top := p.TopK(1, 1, 10)
	if len(top) != 1 || top[0].Score != 0.5 {
		t.Fatalf("TopK = %+v", top)
	}
}

func TestPoolMarkRetweeted(t *testing.T) {
	p := NewPool([]ids.UserID{1}, constPub, 100)
	p.Bump(1, 7, 0.9)
	p.MarkRetweeted(1, 7)
	if got := p.TopK(1, 5, 10); len(got) != 0 {
		t.Fatalf("retweeted tweet still recommended: %v", got)
	}
}

func TestPoolFreshnessEviction(t *testing.T) {
	pub := func(t ids.TweetID) ids.Timestamp { return ids.Timestamp(t) * 10 }
	p := NewPool([]ids.UserID{1}, pub, 50)
	p.Bump(1, 0, 0.9) // published at 0
	p.Bump(1, 9, 0.1) // published at 90
	top := p.TopK(1, 5, 100)
	if len(top) != 1 || top[0].Tweet != 9 {
		t.Fatalf("TopK after expiry = %+v", top)
	}
	// Expired entries are physically evicted.
	if p.Size(1) != 1 {
		t.Errorf("size %d after eviction, want 1", p.Size(1))
	}
}

func TestTopKMatchesSort(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		rng := xrand.New(seed)
		k := int(kRaw)%20 + 1
		n := 100
		type item struct {
			t ids.TweetID
			s float64
		}
		items := make([]item, n)
		tk := NewTopK(k)
		for i := range items {
			items[i] = item{ids.TweetID(i), float64(rng.Intn(50))} // ties likely
			tk.Offer(items[i].t, items[i].s)
		}
		got := tk.Ranked()
		sort.Slice(items, func(i, j int) bool {
			if items[i].s != items[j].s {
				return items[i].s > items[j].s
			}
			return items[i].t < items[j].t
		})
		if len(got) != k {
			return false
		}
		for i := range got {
			if got[i].Tweet != items[i].t || got[i].Score != items[i].s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTopKFewerThanK(t *testing.T) {
	tk := NewTopK(10)
	tk.Offer(1, 0.5)
	tk.Offer(2, 0.7)
	got := tk.Ranked()
	if len(got) != 2 || got[0].Tweet != 2 {
		t.Fatalf("Ranked = %+v", got)
	}
}

func TestTopKZero(t *testing.T) {
	tk := NewTopK(0)
	tk.Offer(1, 0.5)
	if got := tk.Ranked(); len(got) != 0 {
		t.Fatalf("k=0 returned %v", got)
	}
}

func TestPoolRetire(t *testing.T) {
	p := NewPool([]ids.UserID{1}, constPub, 100)
	p.Bump(1, 7, 0.9)
	p.Bump(1, 8, 0.5)
	p.Bump(1, 9, 0.3)
	p.MarkRetweeted(1, 4)
	p.Retire(1, 7) // swap-removes the first entry
	p.Retire(1, 4) // drops the shared mark
	p.Retire(1, 5) // unknown tweet: no-op
	p.Retire(2, 8) // untracked user: no-op
	if p.Size(1) != 2 {
		t.Fatalf("size %d after retiring one of three entries, want 2", p.Size(1))
	}
	if top := p.TopK(1, 5, 10); len(top) != 2 || top[0].Tweet != 8 || top[1].Tweet != 9 {
		t.Fatalf("TopK after retire = %+v", top)
	}
	// The index still points at the moved entry, and the shared mark is gone.
	p.Bump(1, 9, 0.95)
	p.Bump(1, 4, 0.1)
	if top := p.TopK(1, 5, 10); len(top) != 3 || top[0] != (ScoredTweet{9, 0.95}) || top[2] != (ScoredTweet{4, 0.1}) {
		t.Fatalf("TopK after re-bump = %+v", top)
	}
}

// FuzzPoolDifferential holds the flat Pool to the frozen map-based
// refPool: any sequence of Bump/Add/MarkRetweeted/TopK must rank the same
// tweets with the same scores. Time only moves forward, and a tweet is
// retired (from the flat pool only) once the clock is past its horizon,
// the contract the SimGraph recommender keeps: every later read is at a
// now where both pools drop the tweet anyway.
func FuzzPoolDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4, 0, 1, 5, 2, 5, 1, 0, 5})
	f.Add([]byte{1, 3, 2, 1, 1, 3, 2, 1, 2, 3, 2, 0, 5, 3, 0, 4, 0, 4, 9, 7})
	f.Add([]byte{0, 1, 0, 6, 0, 1, 1, 6, 3, 0, 0, 31, 3, 0, 0, 31, 4, 1, 0, 0, 5, 1, 0, 5, 0, 1, 0, 1})
	pub := func(t ids.TweetID) ids.Timestamp { return ids.Timestamp(t) * 10 }
	const maxAge = 50
	tracked := []ids.UserID{1, 3, 4} // users 0, 2 and 5 are untracked
	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewPool(tracked, pub, maxAge)
		ref := newRefPool(tracked, pub, maxAge)
		var now ids.Timestamp
		read := func(u ids.UserID, k int) {
			got, want := p.TopK(u, k, now), ref.TopK(u, k, now)
			if len(got) != len(want) {
				t.Fatalf("user %d k=%d now=%d: TopK %v, reference %v", u, k, now, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("user %d k=%d now=%d: TopK %v, reference %v", u, k, now, got, want)
				}
			}
		}
		for ; len(ops) >= 4; ops = ops[4:] {
			u, tw, c := ids.UserID(ops[1]%6), ids.TweetID(ops[2]%24), ops[3]
			score := float64(c%8) / 4 // small range: ties are common
			switch ops[0] % 6 {
			case 0:
				p.Bump(u, tw, score)
				ref.Bump(u, tw, score)
			case 1:
				p.Add(u, tw, score)
				ref.Add(u, tw, score)
			case 2:
				p.MarkRetweeted(u, tw)
				ref.MarkRetweeted(u, tw)
			case 3:
				now += ids.Timestamp(c % 32)
			case 4:
				if now-pub(tw) > maxAge {
					p.Retire(u, tw)
				}
			case 5:
				read(u, int(c%6))
			}
		}
		for u := ids.UserID(0); u < 6; u++ {
			if p.Tracks(u) != ref.Tracks(u) {
				t.Fatalf("Tracks(%d) = %v, reference %v", u, p.Tracks(u), ref.Tracks(u))
			}
			read(u, 24)
		}
	})
}
