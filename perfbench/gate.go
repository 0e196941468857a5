package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro"
)

// The correctness gate runs after the timed phase, once writes and the
// background refresher have stopped, so the engine state is fixed.

// recommendBody is the GET /recommend response.
type recommendBody struct {
	User            repro.UserID    `json:"user"`
	Now             repro.Timestamp `json:"now"`
	Cold            bool            `json:"cold"`
	Recommendations []struct {
		Tweet repro.TweetID `json:"tweet"`
		Score float64       `json:"score"`
	} `json:"recommendations"`
}

// oracle answers a recommendation request directly, bypassing HTTP.
type oracle func(u repro.UserID, k int, now repro.Timestamp) ([]repro.Recommendation, bool)

// checkServed fetches each user's list over HTTP twice — the second
// fetch is a cache hit whenever the first one filled the cache — and
// requires every body to equal the oracle's answer at the body's own
// now, scores bit for bit. It returns that now (the server's watermark)
// and how many fetches the cache served.
func checkServed(c *http.Client, base string, users []repro.UserID, want oracle) (now repro.Timestamp, hits int, err error) {
	for _, u := range users {
		for range 2 {
			body, verdict, err := fetch(c, base, u)
			if err != nil {
				return 0, hits, err
			}
			if verdict == "hit" {
				hits++
			}
			recs, cold := want(u, listLen, body.Now)
			got := make([]repro.Recommendation, len(body.Recommendations))
			for i, r := range body.Recommendations {
				got[i] = repro.Recommendation{Tweet: r.Tweet, Score: r.Score}
			}
			if body.User != u || body.Cold != cold || !sameRecs(got, recs) {
				return 0, hits, fmt.Errorf("user %d at now %d (X-Cache %s): served cold=%v %v, engine cold=%v %v",
					u, body.Now, verdict, body.Cold, got, cold, recs)
			}
			now = body.Now
		}
	}
	return now, hits, nil
}

func fetch(c *http.Client, base string, u repro.UserID) (recommendBody, string, error) {
	var body recommendBody
	resp, err := c.Get(recommendURL(base, u))
	if err != nil {
		return body, "", fmt.Errorf("user %d: %w", u, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return body, "", fmt.Errorf("user %d: status %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return body, "", fmt.Errorf("user %d: decoding body: %w", u, err)
	}
	return body, resp.Header.Get("X-Cache"), nil
}

// recommendURL is GET /recommend for u with no now parameter: the
// server answers at its default-now watermark.
func recommendURL(base string, u repro.UserID) string {
	return base + "/recommend?k=" + strconv.Itoa(listLen) + "&user=" + strconv.FormatUint(uint64(u), 10)
}

// checkReplay feeds a fresh engine the live engine's observed log one
// action at a time and requires bit-identical recommendations for every
// sampled user at now.
func checkReplay(ds *repro.Dataset, opts repro.EngineOptions, log []repro.Action, users []repro.UserID, now repro.Timestamp, live oracle) error {
	fresh, err := repro.NewEngine(ds, opts)
	if err != nil {
		return fmt.Errorf("building replay engine: %w", err)
	}
	defer fresh.Close()
	for i, a := range log {
		if err := fresh.Observe(a.User, a.Tweet, a.Time); err != nil {
			return fmt.Errorf("replaying action %d: %w", i, err)
		}
	}
	for _, u := range users {
		want, wantCold := fresh.RecommendWithColdStart(u, listLen, now)
		got, gotCold := live(u, listLen, now)
		if gotCold != wantCold || !sameRecs(got, want) {
			return fmt.Errorf("user %d at now %d: live cold=%v %v, serial replay cold=%v %v", u, now, gotCold, got, wantCold, want)
		}
	}
	return nil
}

func sameRecs(a, b []repro.Recommendation) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Tweet != b[i].Tweet || math.Float64bits(a[i].Score) != math.Float64bits(b[i].Score) {
			return false
		}
	}
	return true
}
