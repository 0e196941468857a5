package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/gen"
	"repro/internal/shard"
)

// fixture is an engine, a server over it, and the temporally split
// dataset that feeds them.
type fixture struct {
	ds     *repro.Dataset
	train  []repro.Action
	test   []repro.Action
	eng    *repro.Engine
	srv    *Server
	hs     *httptest.Server
	now    repro.Timestamp
	client *http.Client
}

func newFixture(t *testing.T, users int, seed uint64, opts Options) *fixture {
	t.Helper()
	ds, err := gen.Generate(gen.DefaultConfig(users, seed))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	eng, err := repro.NewEngine(ds, eopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(ForEngine(eng), opts)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return &fixture{
		ds: ds, train: train, test: test, eng: eng, srv: srv, hs: hs,
		now:    test[len(test)-1].Time + 1,
		client: hs.Client(),
	}
}

func (fx *fixture) observe(t *testing.T, a repro.Action) *http.Response {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
	resp, err := fx.client.Post(fx.hs.URL+"/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

func (fx *fixture) recommend(t *testing.T, u repro.UserID, k int, now repro.Timestamp) (recommendResponse, *http.Response) {
	t.Helper()
	resp, err := fx.client.Get(fmt.Sprintf("%s/recommend?user=%d&k=%d&now=%d", fx.hs.URL, u, k, now))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out recommendResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp
}

// assertMatchesEngine requires the HTTP response body to be
// bit-identical to a direct, uncached engine read.
func (fx *fixture) assertMatchesEngine(t *testing.T, u repro.UserID, k int, now repro.Timestamp, got recommendResponse) {
	t.Helper()
	want := fx.eng.Recommend(u, k, now)
	if len(got.Recommendations) != len(want) {
		t.Fatalf("user %d: served %d recs, engine has %d", u, len(got.Recommendations), len(want))
	}
	for i, w := range want {
		g := got.Recommendations[i]
		if g.Tweet != w.Tweet || g.Score != w.Score {
			t.Fatalf("user %d rank %d: served %+v, engine %+v", u, i, g, w)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	fx := newFixture(t, 200, 11, Options{})

	if resp := fx.observe(t, fx.test[0]); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("observe status = %d", resp.StatusCode)
	}
	bad := repro.Action{User: repro.UserID(fx.ds.NumUsers() + 1), Tweet: 0, Time: 1}
	if resp := fx.observe(t, bad); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid observe status = %d", resp.StatusCode)
	}

	// A warm user: first read misses and fills, second hits; both match
	// the engine bit for bit.
	warm := fx.test[0].User
	got, resp := fx.recommend(t, warm, 10, fx.now)
	if v := resp.Header.Get("X-Cache"); v != "miss" && v != "bypass" {
		t.Fatalf("first read X-Cache = %q", v)
	}
	fx.assertMatchesEngine(t, warm, 10, fx.now, got)
	if resp.Header.Get("X-Cache") != "bypass" {
		got2, resp2 := fx.recommend(t, warm, 10, fx.now)
		if v := resp2.Header.Get("X-Cache"); v != "hit" {
			t.Fatalf("second read X-Cache = %q", v)
		}
		fx.assertMatchesEngine(t, warm, 10, fx.now, got2)
	}

	r, err := fx.client.Get(fmt.Sprintf("%s/similarity?u=%d&v=%d", fx.hs.URL, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	var sim struct {
		Similarity *float64 `json:"similarity"`
	}
	if err := json.NewDecoder(r.Body).Decode(&sim); err != nil || sim.Similarity == nil {
		t.Fatalf("similarity decode: %v (%+v)", err, sim)
	}
	r.Body.Close()
	if want := fx.eng.Similarity(1, 2); *sim.Similarity != want {
		t.Fatalf("similarity = %v, engine %v", *sim.Similarity, want)
	}

	body, _ := json.Marshal(map[string]any{"seeds": []int{int(fx.test[0].User)}})
	r, err = fx.client.Post(fx.hs.URL+"/propagate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var prop struct {
		Scores map[string]float64 `json:"scores"`
	}
	if err := json.NewDecoder(r.Body).Decode(&prop); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if want := fx.eng.PropagateScores([]repro.UserID{fx.test[0].User}); len(prop.Scores) != len(want) {
		t.Fatalf("propagate returned %d scores, engine %d", len(prop.Scores), len(want))
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		r, err := fx.client.Get(fx.hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, r.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodGet, fx.hs.URL+"/metrics", nil)
	req.Header.Set("Accept", "application/json; charset=utf-8, text/plain; q=0.5")
	r, err = fx.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if ct := r.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("negotiated Content-Type = %q, want JSON (satellite: parsed media ranges)", ct)
	}
}

// TestObserveInvalidatesCache pins the delta-invalidation contract on
// the write path: after an observe touching user u, u's cached entry is
// gone and the next read recomputes — bit-identical to the engine.
func TestObserveInvalidatesCache(t *testing.T) {
	fx := newFixture(t, 200, 12, Options{})
	var u repro.UserID
	found := false
	for _, a := range fx.test {
		if len(fx.eng.Recommend(a.User, 10, fx.now)) > 0 {
			u, found = a.User, true
			break
		}
	}
	if !found {
		t.Skip("no warm test user in fixture")
	}
	if _, resp := fx.recommend(t, u, 10, fx.now); resp.Header.Get("X-Cache") != "miss" {
		t.Fatal("first read did not fill")
	}
	if _, resp := fx.recommend(t, u, 10, fx.now); resp.Header.Get("X-Cache") != "hit" {
		t.Fatal("second read did not hit")
	}
	var act repro.Action
	for _, a := range fx.test {
		if a.User == u {
			act = a
			break
		}
	}
	fx.observe(t, act)
	got, resp := fx.recommend(t, u, 10, fx.now)
	if v := resp.Header.Get("X-Cache"); v == "hit" {
		t.Fatal("read after observe hit a stale entry")
	}
	fx.assertMatchesEngine(t, u, 10, fx.now, got)
}

// TestRefreshInvalidatesCache pins the other invalidation source: a
// graph refresh can move anyone's scores, so it clears everything.
func TestRefreshInvalidatesCache(t *testing.T) {
	fx := newFixture(t, 200, 13, Options{})
	for _, a := range fx.test[:200] {
		fx.observe(t, a)
	}
	users := []repro.UserID{}
	seen := map[repro.UserID]bool{}
	for _, a := range fx.test[:40] {
		if !seen[a.User] {
			seen[a.User] = true
			users = append(users, a.User)
		}
	}
	for _, u := range users {
		fx.recommend(t, u, 10, fx.now)
	}
	fx.eng.RefreshGraph(repro.UpdateFromScratch)
	for _, u := range users {
		got, resp := fx.recommend(t, u, 10, fx.now)
		if resp.Header.Get("X-Cache") == "hit" {
			t.Fatalf("user %d served from cache across a graph refresh", u)
		}
		fx.assertMatchesEngine(t, u, 10, fx.now, got)
	}
}

// TestConcurrentSoakBitIdentity is the race-mode soak: concurrent
// writers, readers, and graph refreshes through the full HTTP stack,
// then a quiesced sweep asserting every (possibly cached) response is
// bit-identical to an uncached engine read. Run with -race this also
// exercises concurrent writers on the engine's one write path and the
// invalidation hook under fire.
func TestConcurrentSoakBitIdentity(t *testing.T) {
	fx := newFixture(t, 200, 14, Options{})
	const (
		writers = 4
		readers = 4
		reads   = 150
	)
	feed := fx.test
	if len(feed) > 1200 {
		feed = feed[:1200]
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(feed); i += writers {
				fx.observe(t, feed[i])
			}
		}(w)
	}
	for rdr := 0; rdr < readers; rdr++ {
		wg.Add(1)
		go func(rdr int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				u := feed[(rdr*reads+i*7)%len(feed)].User
				fx.recommend(t, u, 10, fx.now)
			}
		}(rdr)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			fx.eng.RefreshGraph(repro.UpdateIncremental)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()

	// Quiesced: every resident cache entry must now reflect the final
	// state — any stale survivor shows up as a diff against the engine.
	for u := 0; u < fx.ds.NumUsers(); u++ {
		got, resp := fx.recommend(t, repro.UserID(u), 10, fx.now)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("user %d: status %d", u, resp.StatusCode)
		}
		fx.assertMatchesEngine(t, repro.UserID(u), 10, fx.now, got)
	}
	snap := fx.srv.Metrics()
	if snap.Counters["server/cache/hits"] == 0 {
		t.Error("soak produced zero cache hits; the cache never engaged")
	}
	if got := snap.Counters["engine/observe/actions"]; got != uint64(len(feed)) {
		t.Errorf("engine applied %d of the %d posted writes", got, len(feed))
	}
}

// TestRouterBackend serves the same contract over a sharded fleet:
// writes land on owner shards through the batched path, reads are
// cached with the same bit-identity guarantee, and cold users flagged
// by the fan-out bypass the cache.
func TestRouterBackend(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(200, 15))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	rt, err := shard.New(ds, eopts, shard.Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	srv := New(ForRouter(rt), Options{})
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := hs.Client()

	for _, a := range test[:300] {
		body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
		resp, err := client.Post(hs.URL+"/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("observe status = %d", resp.StatusCode)
		}
	}
	now := test[len(test)-1].Time + 1
	colds, hits := 0, 0
	for u := 0; u < ds.NumUsers(); u++ {
		for pass := 0; pass < 2; pass++ {
			resp, err := client.Get(fmt.Sprintf("%s/recommend?user=%d&k=10&now=%d", hs.URL, u, now))
			if err != nil {
				t.Fatal(err)
			}
			var got recommendResponse
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			verdict := resp.Header.Get("X-Cache")
			if got.Cold {
				colds++
				if verdict != "bypass" {
					t.Fatalf("user %d cold but X-Cache = %q", u, verdict)
				}
			} else if pass == 1 && verdict == "hit" {
				hits++
			}
			want := rt.Recommend(repro.UserID(u), 10, now)
			if len(got.Recommendations) != len(want) {
				t.Fatalf("user %d: served %d recs, router has %d", u, len(got.Recommendations), len(want))
			}
			for i, w := range want {
				g := got.Recommendations[i]
				if g.Tweet != w.Tweet || g.Score != w.Score {
					t.Fatalf("user %d rank %d: served %+v, router %+v", u, i, g, w)
				}
			}
		}
	}
	if hits == 0 {
		t.Error("no cache hits over the router backend")
	}
	if colds == 0 {
		t.Error("fixture exercises no cold fan-out through the server")
	}
}

// gatedBackend holds every ObserveBatch call open until release is
// closed, so the test can fill the backend with a known number of
// writes.
type gatedBackend struct {
	Backend
	release chan struct{}
}

func (g *gatedBackend) ObserveBatch(actions []repro.Action) []error {
	<-g.release
	return g.Backend.ObserveBatch(actions)
}

// blockingReadBackend wedges RecommendWithColdStart open so the test
// can hold a known number of reads in flight.
type blockingReadBackend struct {
	Backend
	entered chan struct{}
	release chan struct{}
}

func (b *blockingReadBackend) RecommendWithColdStart(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool) {
	b.entered <- struct{}{}
	<-b.release
	return b.Backend.RecommendWithColdStart(u, k, now)
}

// TestQueueAwareAdmission pins the in-flight admission bound: with
// MaxInFlight requests wedged inside the server, the next arrival is
// shed with 429 before it deepens the queue, the shed is counted, and
// service resumes once the queue drains.
func TestQueueAwareAdmission(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(120, 6))
	if err != nil {
		t.Fatal(err)
	}
	train, _, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	eng, err := repro.NewEngine(ds, eopts)
	if err != nil {
		t.Fatal(err)
	}
	const wedged = 2
	blocking := &blockingReadBackend{
		Backend: ForEngine(eng),
		entered: make(chan struct{}, wedged),
		release: make(chan struct{}),
	}
	srv := New(blocking, Options{MaxInFlight: wedged})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	codes := make(chan int, wedged)
	for i := 0; i < wedged; i++ {
		go func(u int) {
			resp, err := hs.Client().Get(fmt.Sprintf("%s/recommend?user=%d&k=5&now=1", hs.URL, u))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	for i := 0; i < wedged; i++ {
		<-blocking.entered // both reads are inside the backend
	}

	// The box is full: the next arrival must be shed at the door.
	resp, err := hs.Client().Get(hs.URL + "/recommend?user=50&k=5&now=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-admission status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("queue shed carries no Retry-After")
	}
	if got := srv.Metrics().Counter("server/shed/queue_shed"); got == 0 {
		t.Error("queue_shed counter did not move")
	}
	if got := srv.Metrics().Gauge("server/http/in_flight"); got != wedged {
		t.Errorf("in_flight gauge = %d, want %d", got, wedged)
	}

	close(blocking.release)
	for i := 0; i < wedged; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("wedged read finished with status %d", code)
		}
	}
	// Drained: the same request is admitted again.
	resp, err = hs.Client().Get(hs.URL + "/recommend?user=50&k=5&now=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain status = %d, want 200", resp.StatusCode)
	}
}

// TestObserveBackpressure pins the write-storm contract: with one write
// being applied and MaxPending more waiting inside the backend, further
// writes get 503 + Retry-After instead of unbounded queue growth, and
// every admitted write still commits.
func TestObserveBackpressure(t *testing.T) {
	ds, err := gen.Generate(gen.DefaultConfig(120, 7))
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := repro.SplitDataset(ds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	eopts := repro.DefaultEngineOptions()
	eopts.Train = train
	eopts.MaxAge = 1 << 40
	eng, err := repro.NewEngine(ds, eopts)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedBackend{
		Backend: ForEngine(eng),
		release: make(chan struct{}),
	}
	const maxPending = 4
	srv := New(gated, Options{MaxPending: maxPending})
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	post := func(a repro.Action) (*http.Response, error) {
		body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
		return hs.Client().Post(hs.URL+"/observe", "application/json", bytes.NewReader(body))
	}

	codes := make(chan int, maxPending+1)
	submit := func(a repro.Action) {
		go func() {
			resp, err := post(a)
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i <= maxPending; i++ {
		submit(test[i])
	}
	// Wait until every admitted write is inside the wedged backend.
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := srv.observing.Load()
		if n == maxPending+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d writes inside the backend", n, maxPending+1)
		}
		time.Sleep(time.Millisecond)
	}

	// The queue is at its bound: the next write must bounce.
	resp, err := post(test[maxPending+1])
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overflow response carries no Retry-After")
	}
	if got := srv.Metrics().Counter("server/batch/overflow"); got == 0 {
		t.Error("overflow counter did not move")
	}

	close(gated.release)
	for i := 0; i < maxPending+1; i++ {
		if code := <-codes; code != http.StatusNoContent {
			t.Fatalf("admitted write finished with status %d", code)
		}
	}
	if got := len(eng.ObservedActions()); got != maxPending+1 {
		t.Fatalf("engine applied %d actions, want %d", got, maxPending+1)
	}
}

// post sends body to path and returns the response status, draining
// and closing the body.
func (fx *fixture) post(t *testing.T, path string, body []byte) int {
	t.Helper()
	resp, err := fx.client.Post(fx.hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// TestObserveBodyLimit: an observe body past maxObserveBody is refused
// with 413 before anything reaches the engine.
func TestObserveBodyLimit(t *testing.T) {
	fx := newFixture(t, 200, 11, Options{})
	a := fx.test[0]
	pad := strings.Repeat("x", maxObserveBody)
	body, _ := json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time, "pad": pad})
	if got := fx.post(t, "/observe", body); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized observe status = %d, want 413", got)
	}
	if n := fx.eng.Metrics().Counters["engine/observe/actions"]; n != 0 {
		t.Fatalf("engine applied %d actions from an oversized body", n)
	}
	body, _ = json.Marshal(map[string]any{"user": a.User, "tweet": a.Tweet, "time": a.Time})
	if got := fx.post(t, "/observe", body); got != http.StatusNoContent {
		t.Fatalf("observe status = %d, want 204", got)
	}
}

// TestPropagateBodyLimit: a propagate body past maxPropagateBody is
// refused with 413.
func TestPropagateBodyLimit(t *testing.T) {
	fx := newFixture(t, 200, 11, Options{})
	body := []byte(`{"seeds":[` + strings.Repeat(" ", maxPropagateBody) + `1]}`)
	if got := fx.post(t, "/propagate", body); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized propagate status = %d, want 413", got)
	}
}

// TestPropagateSeedCap: a seed list longer than maxPropagateSeeds is
// refused with 400, and one at the cap is served.
func TestPropagateSeedCap(t *testing.T) {
	fx := newFixture(t, 200, 11, Options{})
	seeds := make([]int, maxPropagateSeeds+1)
	for i := range seeds {
		seeds[i] = i % fx.ds.NumUsers()
	}
	body, _ := json.Marshal(map[string]any{"seeds": seeds})
	if got := fx.post(t, "/propagate", body); got != http.StatusBadRequest {
		t.Fatalf("propagate with %d seeds: status %d, want 400", len(seeds), got)
	}
	body, _ = json.Marshal(map[string]any{"seeds": seeds[:maxPropagateSeeds]})
	if got := fx.post(t, "/propagate", body); got != http.StatusOK {
		t.Fatalf("propagate with %d seeds: status %d, want 200", maxPropagateSeeds, got)
	}
}
