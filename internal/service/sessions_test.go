package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/session"
	"smoothproc/internal/trace"
)

// dfm is the discriminated fair merge of Figure 2 — small enough to
// solve instantly, with two eliminable feeder channels (b and c) for the
// delta endpoint.
const dfm = `alphabet b = {0}
alphabet c = {1}
alphabet d = {0, 1}
depth 4
desc even(d) <- b
desc odd(d)  <- c
desc b <- [0]
desc c <- [1]
`

// kahnBuffer is the unbounded buffer at depth 12: a 417k-node search
// whose first solution sits at depth 2, so a stream's first "solution"
// event arrives while almost the whole tree is still open.
const kahnBuffer = `alphabet a = {0, 1}
alphabet e = {0, 1}
depth 12
desc e <- a
`

func TestSessionEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	// Reference answer: a plain solve of the full-depth spec.
	resp, body := postJSON(t, ts.URL+"/v1/solve", SolveRequest{Source: dfm, Wait: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference solve: status %d: %s", resp.StatusCode, body)
	}
	ref := decode[JobView](t, body)
	if ref.Result == nil || len(ref.Result.Solutions) == 0 {
		t.Fatalf("reference solve: no result: %s", body)
	}

	// Create the session at half depth: a cold capture solve.
	resp, body = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: dfm, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	sv := decode[SessionView](t, body)
	if sv.Outcome != "cold" || sv.Depth != 2 || sv.Solves != 1 {
		t.Fatalf("session create: want cold solve at depth 2, got %+v", sv)
	}
	if sv.Frontier == 0 {
		t.Fatalf("session create: depth-bound session retained no frontier: %+v", sv)
	}
	if sv.Result == nil {
		t.Fatalf("session create: no result: %s", body)
	}
	hash := sv.SpecHash
	coldNodes := sv.Nodes

	var got SessionView
	if code := getJSON(t, ts.URL+"/v1/sessions/"+hash, &got); code != http.StatusOK {
		t.Fatalf("session get: status %d", code)
	}
	if got.Outcome != "" || got.Solves != 1 || got.Nodes != coldNodes {
		t.Fatalf("session get: %+v", got)
	}

	// Deepen to the spec's full depth: the resumed leg must land on the
	// reference answer while classifying only the new nodes.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resp.StatusCode, body)
	}
	sv = decode[SessionView](t, body)
	if sv.Outcome != "resumed" || sv.Depth != 4 || sv.Resumes != 1 {
		t.Fatalf("resume: want resumed at depth 4, got %+v", sv)
	}
	if sv.Result == nil {
		t.Fatal("resume: no result")
	}
	if want, gotS := fmt.Sprint(ref.Result.Solutions), fmt.Sprint(sv.Result.Solutions); want != gotS {
		t.Fatalf("resumed solutions diverge from cold solve:\n cold    %s\n resumed %s", want, gotS)
	}
	if sv.Result.Nodes != ref.Result.Nodes {
		t.Fatalf("resumed node count %d ≠ cold %d", sv.Result.Nodes, ref.Result.Nodes)
	}
	if sv.Nodes <= coldNodes {
		t.Fatalf("resume did not grow the commit pointer: %d ≤ %d", sv.Nodes, coldNodes)
	}

	// Same bounds again: a replay, no new search.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replay: status %d: %s", resp.StatusCode, body)
	}
	sv = decode[SessionView](t, body)
	if sv.Outcome != "replayed" || sv.Replays != 1 {
		t.Fatalf("replay: %+v", sv)
	}

	// A session may not shrink.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 1})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("depth shrink: want 409, got %d: %s", resp.StatusCode, body)
	}

	// Resume addresses the session by path; a body spec is a mistake.
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Source: dfm})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resume with source: want 400, got %d", resp.StatusCode)
	}

	if code := getJSON(t, ts.URL+"/v1/sessions/no-such-hash", nil); code != http.StatusNotFound {
		t.Fatalf("unknown session: want 404, got %d", code)
	}
}

func TestSessionDeltaEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	resp, body := postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: dfm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	hash := decode[SessionView](t, body).SpecHash

	// b is a feeder channel with a defining description: eliminable.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/delta", DeltaRequest{Channel: "b", Check: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta b: status %d: %s", resp.StatusCode, body)
	}
	dv := decode[DeltaView](t, body)
	if dv.Channel != "b" || dv.Desc == "" || dv.FromNodes == 0 {
		t.Fatalf("delta b: %+v", dv)
	}
	if len(dv.Solutions) == 0 {
		t.Fatal("delta b: no projected solutions")
	}
	for _, s := range dv.Solutions {
		if strings.Contains(s, "(b,") {
			t.Fatalf("projected solution still mentions b: %s", s)
		}
	}
	if len(dv.System) == 0 {
		t.Fatalf("delta b: no reduced system: %+v", dv)
	}
	if dv.Check == nil {
		t.Fatal("delta b: differential check missing")
	}
	if dv.Check.FreshNodes == 0 || dv.Check.Matched != len(dv.Solutions) {
		t.Fatalf("delta check: %+v vs %d projected", dv.Check, len(dv.Solutions))
	}

	// d is the merged output channel — not a defining-shaped feeder, so
	// the static gate refuses to reuse state for its elimination.
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/delta", DeltaRequest{Channel: "d"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("delta d: want 422, got %d: %s", resp.StatusCode, body)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/delta", DeltaRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta without channel: want 400, got %d", resp.StatusCode)
	}

	resp, _ = postJSON(t, ts.URL+"/v1/sessions/no-such-hash/delta", DeltaRequest{Channel: "b"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("delta on unknown session: want 404, got %d", resp.StatusCode)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvt struct {
	name string
	data []byte
}

// readSSE parses the next event off the stream.
func readSSE(t *testing.T, br *bufio.Reader) sseEvt {
	t.Helper()
	var e sseEvt
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("stream ended mid-event: %v (got %+v)", err, e)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			e.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			e.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "" && e.name != "":
			return e
		}
	}
}

func TestSolveStreamFirstSolutionBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	js, err := json.Marshal(SolveRequest{Source: kahnBuffer})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/solve/stream", "application/json", bytes.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		t.Fatalf("stream: status %d: %s", resp.StatusCode, buf.String())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	br := bufio.NewReader(resp.Body)

	// The stream opens with the job, pollable while the search runs.
	e := readSSE(t, br)
	if e.name != "job" {
		t.Fatalf("first event %q, want job", e.name)
	}
	job := decode[StreamJob](t, e.data)
	if job.ID == "" || job.SpecHash == "" {
		t.Fatalf("job event: %+v", job)
	}

	// The first solution must land while the search is still open: the
	// kahn-buffer tree at depth 12 has 417k nodes but its first solution
	// at depth 2, so the poll below races a search with >99% of its work
	// left against one local HTTP round trip.
	e = readSSE(t, br)
	if e.name != "solution" {
		t.Fatalf("second event %q, want solution", e.name)
	}
	first := decode[StreamSolution](t, e.data)
	if first.Index != 0 || first.Trace == "" {
		t.Fatalf("first solution event: %+v", first)
	}
	var jv JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+job.ID, &jv); code != http.StatusOK {
		t.Fatalf("job poll: status %d", code)
	}
	if jv.State != JobRunning {
		t.Fatalf("job state after first solution: %s, want %s (first solution should beat search completion)", jv.State, JobRunning)
	}

	// Drain: the streamed sequence must be exactly the result's canonical
	// solution order.
	streamed := []string{first.Trace}
	var done JobView
	for {
		e = readSSE(t, br)
		if e.name == "done" {
			done = decode[JobView](t, e.data)
			break
		}
		if e.name != "solution" {
			t.Fatalf("unexpected event %q", e.name)
		}
		sol := decode[StreamSolution](t, e.data)
		if sol.Index != len(streamed) {
			t.Fatalf("solution index %d out of order (want %d)", sol.Index, len(streamed))
		}
		streamed = append(streamed, sol.Trace)
	}
	if done.State != JobDone || done.Result == nil {
		t.Fatalf("done event: %+v", done)
	}
	if done.Result.Truncated || done.Result.Canceled {
		t.Fatalf("stream search did not finish cleanly: %+v", done.Result)
	}
	// The stream emits in canonical commit order; the wire result sorts
	// its keys (SolutionKeys). Same set, different order.
	sorted := append([]string(nil), streamed...)
	sort.Strings(sorted)
	if want, got := fmt.Sprint(done.Result.Solutions), fmt.Sprint(sorted); want != got {
		t.Fatalf("streamed solutions diverge from result:\n result   %.120s…\n streamed %.120s…", want, got)
	}
	if done.Result.Nodes < 10000 {
		t.Fatalf("smoke search too small to prove streaming: %d nodes", done.Result.Nodes)
	}
}

// A session leg whose search panics must not leave the half-advanced
// session serving requests: the leg fails with 500, the live session is
// dropped, and the next leg at the same depth restores the last
// persisted checkpoint and lands on the answer a clean session gives.
// The panicking side is swapped into the live session after the cold
// leg persisted its checkpoint; it panics on every depth-3 trace, which
// the depth-2 capture expands but never classifies.
func TestSessionPanickedLegRestoresFromStore(t *testing.T) {
	// Reference: a clean session deepened from depth 2 to 3.
	_, refTS := newTestServer(t, Config{Workers: 2})
	postJSON(t, refTS.URL+"/v1/sessions", SessionRequest{Source: dfm, Depth: 2})
	resp, body := postJSON(t, refTS.URL+"/v1/sessions/"+specHash(dfm)+"/resume", SessionRequest{Depth: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference resume: status %d: %s", resp.StatusCode, body)
	}
	ref := decode[SessionView](t, body)

	srv, ts := newTestServer(t, Config{Workers: 2})
	resp, body = postJSON(t, ts.URL+"/v1/sessions", SessionRequest{Source: dfm, Depth: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: status %d: %s", resp.StatusCode, body)
	}
	hash := decode[SessionView](t, body).SpecHash
	spec, ok := srv.lookupSpec(context.Background(), hash)
	if !ok {
		t.Fatal("spec not found")
	}
	p := spec.prog.Problem()
	p.CollectVisited = false
	g := p.D.G
	p.D.G.IR = nil
	p.D.G.Apply = func(tr trace.Trace) fn.Tuple {
		if tr.Len() == 3 {
			panic("side exploded")
		}
		return g.Apply(tr)
	}
	bad := session.New(hash, p, spec.prog.System)
	if _, _, err := bad.Solve(context.Background(), session.Options{Depth: 2}); err != nil {
		t.Fatal(err)
	}
	e, ok := srv.sessions.Pin(hash)
	if !ok {
		t.Fatal("session not live")
	}
	e.sess = bad
	srv.sessions.Unpin(hash)

	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 3, Workers: 2})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "side exploded") {
		t.Fatalf("panicking leg: status %d: %s", resp.StatusCode, body)
	}

	var sv SessionView
	if code := getJSON(t, ts.URL+"/v1/sessions/"+hash, &sv); code != http.StatusOK || sv.Depth != 2 {
		t.Fatalf("after the panic: status %d, session %+v; want the persisted depth-2 session", code, sv)
	}
	resp, body = postJSON(t, ts.URL+"/v1/sessions/"+hash+"/resume", SessionRequest{Depth: 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume after the panic: status %d: %s", resp.StatusCode, body)
	}
	sv = decode[SessionView](t, body)
	if sv.Outcome != "resumed" || sv.Depth != 3 || sv.Result == nil {
		t.Fatalf("resume after the panic: %+v", sv)
	}
	if got, want := fmt.Sprint(sv.Result.Solutions, sv.Result.Nodes, sv.Result.Stats),
		fmt.Sprint(ref.Result.Solutions, ref.Result.Nodes, ref.Result.Stats); got != want {
		t.Fatalf("restored session diverges from a clean one:\n got  %s\n want %s", got, want)
	}
}
