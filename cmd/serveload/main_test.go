package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro"
)

// quick are the flags every test shares: a small dataset, sub-second
// phases, and readers concentrated on a few users with one writer, so
// the cache sees hits between invalidations even under -race.
var quick = []string{"-users", "200", "-readers", "4", "-writers", "1", "-hot-users", "8", "-duration", "300ms", "-addr", "127.0.0.1:0"}

func runTool(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append(append([]string{}, quick...), args...), &out); err != nil {
		t.Fatalf("serveload %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func mustContain(t *testing.T, out, want string) {
	t.Helper()
	if !strings.Contains(out, want) {
		t.Fatalf("output lacks %q:\n%s", want, out)
	}
}

func readReport(t *testing.T, path string) report {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSingleEngineAllPhases runs every phase against one engine and
// checks the report the way the serving CI job does.
func TestSingleEngineAllPhases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serving.json")
	runTool(t, "-overload-duration", "300ms", "-replica-duration", "300ms", "-out", path)
	r := readReport(t, path)
	if r.ClosedLoop.Cache.Hits == 0 || r.ClosedLoop.Samples == 0 || r.ClosedLoop.Writes == 0 {
		t.Fatalf("closed loop: %+v", r.ClosedLoop)
	}
	if r.Overload == nil || r.Overload.Sent == 0 || r.Overload.OK+r.Overload.Shed429 == 0 {
		t.Fatalf("overload: %+v", r.Overload)
	}
	rep := r.ReplicaReads
	if rep == nil || rep.FollowerReads == 0 || rep.FollowerApplied == 0 || rep.Rebootstraps != 0 {
		t.Fatalf("replica reads: %+v", rep)
	}
}

func TestShardedClosedLoop(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serving.json")
	runTool(t, "-shards", "4", "-overload-duration", "0", "-out", path)
	r := readReport(t, path)
	if r.Shards != 4 || r.ClosedLoop.Cache.Hits == 0 || r.ClosedLoop.Samples == 0 {
		t.Fatalf("closed loop: %+v", r)
	}
	if r.ReplicaReads != nil {
		t.Fatal("replica phase ran against a sharded fleet")
	}
}

// noPhases skips everything but the closed loop and writes no report.
var noPhases = []string{"-overload-duration", "0", "-replica-duration", "0", "-out", ""}

func TestWALDirRecoversOnRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dur")
	args := append([]string{"-wal-dir", dir}, noPhases...)
	mustContain(t, runTool(t, args...), "durability: fresh "+dir)
	out := runTool(t, args...)
	mustContain(t, out, "recovered "+dir)
	if strings.Contains(out, "WAL tail 0 records") {
		t.Fatalf("rerun replayed no WAL records:\n%s", out)
	}
}

func TestShardedWALDirRecoversOnRerun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "durshard")
	args := append([]string{"-shards", "4", "-wal-dir", dir}, noPhases...)
	mustContain(t, runTool(t, args...), "bootstrap checkpoints on 4 shards")
	mustContain(t, runTool(t, args...), "recovered shard 3")
}

// TestLeaderAndFollower attaches a -follower run to a -serve-wal
// leader's -addr while the leader streams writes.
func TestLeaderAndFollower(t *testing.T) {
	tmp := t.TempDir()
	pr, pw := io.Pipe()
	leaderErr := make(chan error, 1)
	go func() {
		args := append(append([]string{}, quick...), "-duration", "4s", "-wal-dir", filepath.Join(tmp, "leader"), "-serve-wal")
		err := run(append(args, noPhases...), pw)
		pw.CloseWithError(err)
		leaderErr <- err
	}()
	attach := regexp.MustCompile(`followers attach with -follower (\S+)`)
	sc := bufio.NewScanner(pr)
	var url string
	for url == "" && sc.Scan() {
		if m := attach.FindStringSubmatch(sc.Text()); m != nil {
			url = m[1]
		}
	}
	go io.Copy(io.Discard, pr)
	if url == "" {
		t.Fatalf("leader never advertised its address: %v", <-leaderErr)
	}

	out := runTool(t, append([]string{"-follower", url, "-replica-dir", filepath.Join(tmp, "follower")}, noPhases...)...)
	mustContain(t, out, "replica of "+url)
	mustContain(t, out, ", 0 writes (")
	for _, re := range []string{`replica/follower/rebootstraps +0\n`, `replica/follower/records_applied +[1-9]`} {
		if !regexp.MustCompile(re).MatchString(out) {
			t.Errorf("follower output does not match %q:\n%s", re, out)
		}
	}
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestUnexpectedStatusFails pins the status contract of every phase:
// a status other than 204 on /observe or 200 on /recommend ends the
// phase with an error, except a 429 in the open loop, which is counted.
func TestUnexpectedStatusFails(t *testing.T) {
	ts := func(observe, recommend int) string {
		s := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/observe" {
				w.WriteHeader(observe)
			} else {
				w.WriteHeader(recommend)
			}
		}))
		t.Cleanup(s.Close)
		return s.URL
	}
	l := &loader{client: http.DefaultClient, test: make([]repro.Action, 1), k: 10, hot: 4}
	d := 50 * time.Millisecond

	if err := l.calibrate(ts(http.StatusNoContent, http.StatusInternalServerError), d); err == nil {
		t.Error("calibration accepted a 500")
	}
	if _, err := l.closedLoop(ts(http.StatusServiceUnavailable, http.StatusOK), 0, 1, d); err == nil {
		t.Error("closed loop accepted a 503 on /observe")
	}
	if _, err := l.openLoop(ts(http.StatusBadRequest, http.StatusOK), 1, d, 1000); err == nil {
		t.Error("open loop accepted a 400 on /observe")
	}
	over, err := l.openLoop(ts(http.StatusNoContent, http.StatusTooManyRequests), 1, d, 1000)
	if err != nil || over.Shed429 == 0 {
		t.Errorf("open loop with 429s: %+v, %v", over, err)
	}
}
