package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/specvet"
)

// fig4 is the Brock–Ackermann system of Figure 4 — the service's
// canonical unit of work, with exactly one smooth solution.
const fig4 = `alphabet b = {1}
alphabet c = ints 0 .. 2
depth 4
desc even(c) <- [0, 2]
desc odd(c)  <- b
desc b <- fBA(c)
`

const fig4Solution = "⟨(c,0)(c,2)(b,1)(c,1)⟩"

// wideMerge is an adversarial spec: a fair merge with long feeds whose
// tree grows combinatorially with depth — seconds of search at depth 9,
// far beyond any test deadline at depth 12. Deadline and load-shedding
// tests lean on it.
const wideMerge = `alphabet c = {10}
alphabet d = {20}
alphabet b = {(0,10), (1,20)}
alphabet e = {10, 20}
depth 12
desc zero(b) <- tag0(c)
desc one(b)  <- tag1(d)
desc e       <- untag(b)
desc c       <- [10, 10, 10, 10]
desc d       <- [20, 20, 20, 20]
`

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	js, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func decode[T any](t *testing.T, data []byte) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode %T from %q: %v", v, data, err)
	}
	return v
}

func TestUploadAndSolve(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	info := decode[SpecInfo](t, body)
	if info.Hash == "" || info.Depth != 4 || len(info.Descriptions) != 3 || info.Cached {
		t.Fatalf("spec info = %+v", info)
	}

	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: info.Hash, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone || job.Result == nil {
		t.Fatalf("job = %+v", job)
	}
	if len(job.Result.Solutions) != 1 || job.Result.Solutions[0] != fig4Solution {
		t.Fatalf("solutions = %v, want exactly %s", job.Result.Solutions, fig4Solution)
	}
	if job.Result.Nodes == 0 || job.Result.Cached {
		t.Errorf("first solve: nodes=%d cached=%v, want a real search", job.Result.Nodes, job.Result.Cached)
	}
}

func TestSolveInlineSourceCompilesAndCaches(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone {
		t.Fatalf("state = %s", job.State)
	}
	// The inline source landed in the spec cache: solving by hash works.
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: job.SpecHash, Wait: true, NoCache: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve by hash after inline: status %d: %s", resp.StatusCode, body)
	}
	if got := srv.specs.Len(); got != 1 {
		t.Errorf("spec cache holds %d entries, want 1", got)
	}
}

func TestSpecUploadIdempotent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	first := decode[SpecInfo](t, body)
	_, body = postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	second := decode[SpecInfo](t, body)
	if second.Hash != first.Hash || !second.Cached {
		t.Errorf("re-upload: hash %s cached %v, want same hash served from cache", second.Hash, second.Cached)
	}
}

// TestResultCacheSkipsSearch is the caching acceptance check: a repeat
// query must be answered without re-searching, verified through the
// SearchStats node counts — the server-wide nodes_searched_total counter
// must not move, and the cached result reports the original search's
// nodes.
func TestResultCacheSkipsSearch(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2})
	_, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true})
	first := decode[JobView](t, body)
	if first.State != JobDone || first.Result == nil || first.Result.Cached {
		t.Fatalf("first solve = %+v", first)
	}
	nodesAfterFirst, ok := srv.Metrics().Get("search", "nodes searched total")
	if !ok || nodesAfterFirst == 0 {
		t.Fatalf("nodes searched total = %d, %v", nodesAfterFirst, ok)
	}

	_, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true})
	second := decode[JobView](t, body)
	if second.State != JobDone || second.Result == nil || !second.Result.Cached {
		t.Fatalf("repeat solve not served from cache: %+v", second)
	}
	if second.Result.Nodes != first.Result.Nodes {
		t.Errorf("cached nodes %d ≠ original %d", second.Result.Nodes, first.Result.Nodes)
	}
	if got, _ := srv.Metrics().Get("search", "nodes searched total"); got != nodesAfterFirst {
		t.Errorf("repeat query searched %d more nodes; cache failed", got-nodesAfterFirst)
	}
	if second.Result.Solutions[0] != fig4Solution {
		t.Errorf("cached solutions = %v", second.Result.Solutions)
	}
	// Different params miss the cache and search again.
	_, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Depth: 5, Wait: true})
	third := decode[JobView](t, body)
	if third.Result == nil || third.Result.Cached {
		t.Errorf("depth-5 solve should not hit the depth-4 cache entry: %+v", third)
	}
}

// TestResultCacheIgnoresWorkers: the worker count schedules a search but
// never changes its answer, so a result computed at one worker count is
// served from the cache to a request at another, and a fresh search at
// another count reports the same solutions and stats.
func TestResultCacheIgnoresWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	hash := decode[SpecInfo](t, body).Hash

	solve := func(req SolveRequest) *SolveResult {
		t.Helper()
		req.SpecHash, req.Wait = hash, true
		_, body := postJSON(t, ts.URL+"/v1/solve", req)
		view := decode[JobView](t, body)
		if view.State != JobDone || view.Result == nil {
			t.Fatalf("solve %+v = %+v", req, view)
		}
		return view.Result
	}
	same := func(what string, got, want *SolveResult) {
		t.Helper()
		if !reflect.DeepEqual(got.Solutions, want.Solutions) {
			t.Errorf("%s: solutions %v, want %v", what, got.Solutions, want.Solutions)
		}
		if !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%s: stats\n%s\nwant\n%s", what, got.Stats.Text(), want.Stats.Text())
		}
	}

	first := solve(SolveRequest{Workers: 1})
	if first.Cached {
		t.Fatal("first solve reported cached")
	}
	second := solve(SolveRequest{Workers: 2})
	if !second.Cached {
		t.Error("workers:2 repeat of a workers:1 solve missed the result cache")
	}
	same("cached", second, first)
	same("fresh workers:2", solve(SolveRequest{Workers: 2, NoCache: true}), first)
}

func TestMalformedSpecsReturnStructured4xx(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	t.Run("syntax error with line and snippet", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: "alphabet d = ints 0 .. 1\ndesc even(d <- [0\n"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		eb := decode[ErrorBody](t, body)
		if eb.Error == "" || eb.Line != 2 || eb.Snippet == "" {
			t.Errorf("error body = %+v, want message, line 2 and snippet", eb)
		}
	})
	t.Run("empty source", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: ""})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("invalid JSON", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/specs", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown hash", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: "deadbeef", Wait: true})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("status = %d, want 404", resp.StatusCode)
		}
	})
	t.Run("both source and hash", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{SpecHash: "x", Source: fig4})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("neither source nor hash", func(t *testing.T) {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Wait: true})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("status = %d, want 400", resp.StatusCode)
		}
	})
	t.Run("unknown job id", func(t *testing.T) {
		if code := getJSON(t, ts.URL+"/v1/jobs/job-999", nil); code != http.StatusNotFound {
			t.Errorf("status = %d, want 404", code)
		}
	})
}

// TestSpecFindingsReported: uploading a clean spec returns its
// static-analysis findings — theorem classifications and warnings —
// non-fatally, and a cache-hit re-upload serves the same report.
func TestSpecFindingsReported(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	info := decode[SpecInfo](t, body)
	thm1 := false
	for _, d := range info.Findings {
		if d.Severity == specvet.SevError {
			t.Errorf("accepted spec carries an error finding: %+v", d)
		}
		if d.Rule == "thm1-independent" {
			thm1 = true
		}
	}
	if !thm1 {
		t.Errorf("fig4 findings missing thm1-independent classification: %+v", info.Findings)
	}

	_, body = postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: fig4})
	again := decode[SpecInfo](t, body)
	if !again.Cached || len(again.Findings) != len(info.Findings) {
		t.Errorf("cached re-upload: cached=%v findings=%d, want same %d findings from cache",
			again.Cached, len(again.Findings), len(info.Findings))
	}
}

// TestSpecVetErrorsReject: a spec with error-severity findings is
// refused with 400 and the full findings list, positioned at the
// offending use.
func TestSpecVetErrorsReject(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := "alphabet c = ints 0 .. 1\ndesc c <- even(d)\n" // d has no alphabet
	resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: src})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	eb := decode[ErrorBody](t, body)
	if eb.Error == "" || eb.Line != 2 || eb.Snippet == "" {
		t.Errorf("error body = %+v, want message, line 2 and snippet", eb)
	}
	found := false
	for _, d := range eb.Findings {
		if d.Rule == "undefined-channel" && d.Severity == specvet.SevError {
			found = true
		}
	}
	if !found {
		t.Errorf("findings missing undefined-channel error: %+v", eb.Findings)
	}

	// The rejected spec must not be solvable either.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: src, Wait: true})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("solve of vet-rejected spec: status %d, want 400", resp.StatusCode)
	}
}

// TestFuzzCorpusThroughService replays the eqlang fuzz seed corpus
// against POST /v1/specs: every input must produce either a compiled
// spec or a structured 4xx JSON error — never a 5xx, never a panic.
func TestFuzzCorpusThroughService(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, src := range eqlang.Corpus() {
		resp, body := postJSON(t, ts.URL+"/v1/specs", SpecRequest{Source: src})
		switch resp.StatusCode {
		case http.StatusOK:
			info := decode[SpecInfo](t, body)
			if info.Hash == "" || info.Depth <= 0 {
				t.Errorf("corpus[%d]: accepted spec has bad info %+v", i, info)
			}
		case http.StatusBadRequest:
			eb := decode[ErrorBody](t, body)
			if eb.Error == "" {
				t.Errorf("corpus[%d]: 400 without a structured error: %s", i, body)
			}
		default:
			t.Errorf("corpus[%d]: status %d (body %s), want 200 or 400", i, resp.StatusCode, body)
		}
	}
}

// TestConcurrentSolves drives ≥ 8 simultaneous solve jobs through the
// pool — the acceptance concurrency bar; `go test -race` makes it a
// race-detector check too.
func TestConcurrentSolves(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 64})
	const n = 16
	type outcome struct {
		job JobView
		err error
	}
	results := make(chan outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			// Half the requests bypass the result cache and search for
			// real; the other half race genuine cache reads against
			// them — both paths run concurrently under the detector.
			req := SolveRequest{Source: fig4, Wait: true, NoCache: i%2 == 0}
			js, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(js))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			var job JobView
			if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
				results <- outcome{err: fmt.Errorf("decode: %v", err)}
				return
			}
			if resp.StatusCode != http.StatusOK {
				results <- outcome{err: fmt.Errorf("status %d", resp.StatusCode)}
				return
			}
			results <- outcome{job: job}
		}(i)
	}
	for i := 0; i < n; i++ {
		o := <-results
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.job.State != JobDone || o.job.Result == nil {
			t.Fatalf("concurrent job = %+v", o.job)
		}
		if len(o.job.Result.Solutions) != 1 || o.job.Result.Solutions[0] != fig4Solution {
			t.Errorf("concurrent solve found %v", o.job.Result.Solutions)
		}
	}
}

// TestDeadlineCancelsSearch gives an adversarial spec a deadline far
// below its search time: the job must come back canceled, quickly, with
// its sound partial result.
func TestDeadlineCancelsSearch(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	start := time.Now()
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: wideMerge, TimeoutMs: 50, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobCanceled || job.Result == nil || !job.Result.Canceled {
		t.Fatalf("deadline job = %+v, want canceled with partial result", job)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline enforcement took %v", elapsed)
	}
}

// TestAsyncSolveAndPoll exercises the job lifecycle over the wire.
func TestAsyncSolveAndPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve: status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.ID == "" {
		t.Fatalf("async job has no id: %+v", job)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var cur JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &cur); code != http.StatusOK {
			t.Fatalf("poll: status %d", code)
		}
		if cur.State == JobDone {
			if cur.Result == nil || cur.Result.Solutions[0] != fig4Solution {
				t.Fatalf("polled result = %+v", cur.Result)
			}
			return
		}
		if cur.State == JobFailed || cur.State == JobCanceled {
			t.Fatalf("job ended %s: %s", cur.State, cur.Error)
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish in 10s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueueFullShedsLoad saturates a 1-worker, 1-slot server with
// searches too big to finish during the test: later submissions must be
// rejected with 503 rather than buffered without bound.
func TestQueueFullShedsLoad(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	rejected := 0
	for i := 0; i < 6; i++ {
		resp, _ := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: wideMerge, NoCache: true})
		switch resp.StatusCode {
		case http.StatusAccepted:
		case http.StatusServiceUnavailable:
			rejected++
		default:
			t.Fatalf("submission %d: status %d", i, resp.StatusCode)
		}
	}
	if rejected < 4 {
		t.Errorf("rejected %d of 6 submissions, want ≥ 4 (1 running + 1 queued)", rejected)
	}
	// Force-drain so cleanup doesn't wait out the giant searches.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	srv.Shutdown(ctx)
}

// TestGracefulShutdownDrains submits real work and shuts down with a
// generous deadline: the in-flight search must complete, not be killed.
func TestGracefulShutdownDrains(t *testing.T) {
	srv, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, NoCache: true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain returned %v", err)
	}
	var cur JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &cur); code != http.StatusOK {
		t.Fatalf("post-drain poll: status %d", code)
	}
	if cur.State != JobDone {
		t.Errorf("drained job state = %s, want done", cur.State)
	}
	// The result cache still answers repeat queries after shutdown…
	resp, body = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-shutdown cached solve: status %d, want 200: %s", resp.StatusCode, body)
	}
	// …but fresh work is refused.
	resp, _ = postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, NoCache: true})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown fresh solve: status %d, want 503", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: code %d body %v", code, health)
	}
	postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: fig4, Wait: true})
	var stats struct {
		Sections []struct {
			Name  string `json:"name"`
			Items []struct {
				Name  string `json:"name"`
				Value int64  `json:"value"`
			} `json:"items"`
		} `json:"sections"`
	}
	if code := getJSON(t, ts.URL+"/metrics", &stats); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	want := map[string]bool{"server": false, "cache": false, "jobs": false, "store": false, "tenants": false, "search": false}
	for _, sec := range stats.Sections {
		want[sec.Name] = true
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("metrics missing section %q", name)
		}
	}
}

// TestSolveShippedSpecs runs every committed spec file through the
// service path — the same corpus the solver baseline gates — asserting
// the service imposes no semantic drift.
func TestSolveShippedSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4})
	src, err := os.ReadFile("../../specs/fig4-brock-ackermann.eq")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: string(src), Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	job := decode[JobView](t, body)
	if job.State != JobDone || len(job.Result.Solutions) != 1 || job.Result.Solutions[0] != fig4Solution {
		t.Fatalf("shipped fig4 spec: %+v", job)
	}
}
