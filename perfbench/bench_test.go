package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"smoothproc/internal/netgen"
	"smoothproc/internal/service"
	"smoothproc/internal/solver"
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json's workloads and
// metric lists equal to the tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, program has %v", names, workloads)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end %v\nprogram has %v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer %v\nprogram has %v", b.PerLayer, perLayer)
	}
}

func smallStress(t *testing.T) (*stressCase, solver.Result) {
	t.Helper()
	insts, err := drawStressCfg(7, 1, 20000, netgen.StressConfig{TargetNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	c, ref, err := newStressCase(context.Background(), insts[0])
	if err != nil {
		t.Fatal(err)
	}
	return c, ref
}

// TestCheckStressFiresOnTamper: a faithful solve passes at both worker
// counts, and every kind of tampered answer fails the check.
func TestCheckStressFiresOnTamper(t *testing.T) {
	c, _ := smallStress(t)
	ctx := context.Background()
	for _, w := range searchWorkers {
		if err := checkStress(c, w, c.inst.Solve(ctx, w)); err != nil {
			t.Fatalf("faithful w%d solve rejected: %v", w, err)
		}
	}
	tamper := map[string]func(*solver.Result){
		"drop solution": func(r *solver.Result) { r.Solutions = r.Solutions[1:] },
		"swap solution": func(r *solver.Result) { r.Solutions[0] = r.Frontier[0] },
		"drop frontier": func(r *solver.Result) { r.Frontier = r.Frontier[:len(r.Frontier)-1] },
		"add dead leaf": func(r *solver.Result) { r.DeadLeaves = append(r.DeadLeaves, r.Frontier[0]) },
		"nodes":         func(r *solver.Result) { r.Nodes++ },
		"truncated":     func(r *solver.Result) { r.Truncated = true },
		"w1 counters":   func(r *solver.Result) { r.Stats.Eval.FApplies++ },
	}
	for name, f := range tamper {
		r := c.inst.Solve(ctx, 1)
		if len(r.Solutions) == 0 || len(r.Frontier) == 0 {
			t.Fatalf("instance %s has no solutions or frontier to tamper with", c.inst.Name)
		}
		f(&r)
		if checkStress(c, 1, r) == nil {
			t.Errorf("tampered answer (%s) passed the check", name)
		}
	}
}

// TestCheckAnswerFiresOnTamper covers the serve check.
func TestCheckAnswerFiresOnTamper(t *testing.T) {
	c := &corpusCase{inst: &netgen.Instance{Name: "x"}, ref: []string{"⟨(a,0)⟩", "⟨(a,1)⟩"}}
	ok := &service.SolveResult{Solutions: []string{"⟨(a,1)⟩", "⟨(a,0)⟩"}}
	if err := checkAnswer(c, ok); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	for name, res := range map[string]*service.SolveResult{
		"missing":   {Solutions: []string{"⟨(a,0)⟩"}},
		"extra":     {Solutions: []string{"⟨(a,0)⟩", "⟨(a,1)⟩", "⟨(a,2)⟩"}},
		"changed":   {Solutions: []string{"⟨(a,0)⟩", "⟨(a,2)⟩"}},
		"truncated": {Solutions: []string{"⟨(a,0)⟩", "⟨(a,1)⟩"}, Truncated: true},
		"nil":       nil,
	} {
		if checkAnswer(c, res) == nil {
			t.Errorf("tampered answer (%s) passed the check", name)
		}
	}
}

// TestCheckLegFiresOnTamper covers the session check.
func TestCheckLegFiresOnTamper(t *testing.T) {
	ep := episode{inst: &netgen.StressInstance{Name: "s"}, depth: 3}
	ref := []string{"⟨(a,0)(e,0)⟩", "⟨⟩"} // sorted, as coldRefs keeps them
	view := func(depth int, sols ...string) *service.SessionView {
		return &service.SessionView{Depth: depth, Result: &service.SolveResult{Solutions: sols}}
	}
	if err := checkLeg(ep, 2, view(2, ref...), ref); err != nil {
		t.Fatalf("faithful leg rejected: %v", err)
	}
	for name, v := range map[string]*service.SessionView{
		"missing":     view(2, "⟨⟩"),
		"wrong depth": view(1, ref...),
		"no result":   {Depth: 2},
	} {
		if checkLeg(ep, 2, v, ref) == nil {
			t.Errorf("tampered leg (%s) passed the check", name)
		}
	}
}

// TestOpenLoopTimesFromDue checks the open loop's lag accounting with a
// fake sender that takes 20 ms per request. Offered 200 requests/s over
// two connections (100/s capacity), the backlog grows: the generator's
// pick-up lag climbs, every latency covers its lag plus the service
// time, and the ladder verdict fails the step.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const service = 20 * time.Millisecond
	var reqs []request
	for i := 0; i < 40; i++ {
		reqs = append(reqs, request{due: time.Duration(i) * 5 * time.Millisecond})
	}
	send := func(r request, start time.Time, op string) outcome {
		o := outcome{req: r, lag: time.Since(start) - r.due}
		time.Sleep(service)
		o.latency = time.Since(start) - r.due
		return o
	}
	began := time.Now()
	outs := openLoop(context.Background(), reqs, send, "t")
	wall := time.Since(began)
	for i, o := range outs {
		if o.latency < o.lag+service {
			t.Errorf("request %d: latency %v below lag %v + service %v", i, o.latency, o.lag, service)
		}
	}
	first, last := outs[0].lag, outs[len(outs)-1].lag
	// 40 requests at 2 × 50/s take ≥ 400 ms; the last is due at 195 ms.
	if last < 150*time.Millisecond || last <= first {
		t.Errorf("backlog not visible: first lag %v, last lag %v", first, last)
	}
	if pass, _, _ := stepVerdict(outs, wall); pass {
		t.Error("a step whose backlog grew passed the ladder verdict")
	}

	// Within capacity the lag stays small and the step passes.
	var slow []request
	for i := 0; i < 20; i++ {
		slow = append(slow, request{due: time.Duration(i) * 15 * time.Millisecond})
	}
	fast := func(r request, start time.Time, op string) outcome {
		o := outcome{req: r, lag: time.Since(start) - r.due}
		time.Sleep(time.Millisecond)
		o.latency = time.Since(start) - r.due
		return o
	}
	began = time.Now()
	outs = openLoop(context.Background(), slow, fast, "t")
	if pass, _, goodput := stepVerdict(outs, time.Since(began)); !pass || goodput <= 0 {
		t.Errorf("an unloaded step failed: pass %v goodput %v", pass, goodput)
	}
}

// TestTailCountsMisses: a failed request is an infinite latency, so
// more than 1% failures make the p99 infinite.
func TestTailCountsMisses(t *testing.T) {
	outs := make([]outcome, 100)
	for i := range outs {
		outs[i].latency = time.Millisecond
	}
	if p := tail(latencies(outs, nil), 0.99); p != 1 {
		t.Fatalf("p99 of uniform 1 ms = %v", p)
	}
	outs[0].err, outs[1].err = errTest, errTest
	if p := tail(latencies(outs, nil), 0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", p)
	}
}

var errTest = os.ErrDeadlineExceeded

// TestShortRuns runs every workload in short mode, untraced and traced,
// and checks the result line: correct, and every metric present.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	root := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			var out, errb bytes.Buffer
			if code := run([]string{"--workload", w, "--seed", "3", "--seconds", "2", "--trace", traced, "--short"}, &out, &errb); code != 0 {
				t.Fatalf("%s trace %s: exit %d: %s", w, traced, code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct %v, %d of %d failed: %s", w, traced, res.Correct, res.Failed, res.Attempted, errb.String())
			}
			want := endToEnd
			if traced == "1" {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v", w, traced, m.Name, v)
				}
			}
		}
	}
}

// TestW1CountsRepeat: the deterministic single-worker counters of an
// instance are identical across independent solves (and so across runs).
func TestW1CountsRepeat(t *testing.T) {
	c, _ := smallStress(t)
	again, _, err := newStressCase(context.Background(), c.inst)
	if err != nil {
		t.Fatal(err)
	}
	if again.counts != c.counts || again.ref != c.ref {
		t.Errorf("w1 counts did not repeat: %+v vs %+v", again.counts, c.counts)
	}
}

func TestHDQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6}
	if got := hdQuantile(xs, 0.5); math.Abs(got-5) > 1e-9 {
		t.Errorf("HD median of 1..9 = %v, want 5", got)
	}
	if got := hdQuantile([]float64{4, 4, 4}, 0.9); math.Abs(got-4) > 1e-9 {
		t.Errorf("HD p90 of a constant sample = %v", got)
	}
	var big []float64
	for i := 0; i < 1001; i++ {
		big = append(big, float64(i))
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if got, want := hdQuantile(big, q), quantile(big, q); math.Abs(got-want) > 2 {
			t.Errorf("HD q%.1f of 0..1000 = %v, want about %v", q, got, want)
		}
	}
	if !math.IsNaN(hdQuantile(nil, 0.5)) {
		t.Error("empty sample did not read NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median = %v", q)
	}
	if q := quantile(xs, 1); q != 4 {
		t.Errorf("max = %v", q)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty sample did not read NaN")
	}
}

// TestStolenShare checks the steal arithmetic and that this machine's
// tick counters read sensibly.
func TestStolenShare(t *testing.T) {
	if got := (cpuTicks{busy: 200, steal: 50}).stolen(); got != 0.25 {
		t.Errorf("stolen share of 50 in 200 busy ticks = %v", got)
	}
	if got := (cpuTicks{busy: 3, steal: 3}).stolen(); got != 0 {
		t.Errorf("stolen share of too few ticks = %v", got)
	}
	a := readTicks()
	b := readTicks().sub(a)
	if b.steal > b.busy {
		t.Errorf("more ticks stolen than busy: %+v", b)
	}
}

// TestSlottedQuantile: the median over slot medians does not depend on
// how many samples each slot drew, and settle scales only the samples
// added since the last settle.
func TestSlottedQuantile(t *testing.T) {
	var s slotted
	for i := 0; i < 30; i++ {
		s.add(0, 1)
	}
	for i := 0; i < 10; i++ {
		s.add(1, 3)
	}
	if got := s.quantile(0.5, false); math.Abs(got-2) > 1e-9 {
		t.Errorf("median over two slots of 1 and 3 = %v, want 2", got)
	}
	s.settle(0.5)
	s.add(1, 3)
	s.settle(1)
	if got := s.ran[len(s.ran)-2]; got != 1.5 {
		t.Errorf("sample settled at 0.5 reads %v", got)
	}
	if got := s.ran[len(s.ran)-1]; got != 3 {
		t.Errorf("sample settled at 1 reads %v", got)
	}
}

// TestInterleave: every path gets at least its budget and its minimum
// work, steps alternate rather than run path by path, and every step is
// settled once.
func TestInterleave(t *testing.T) {
	var order []int
	var paths []*pathRun
	settled := make([]int, 3)
	for i, budget := range []time.Duration{40, 20, 20} {
		steps := 0
		paths = append(paths, &pathRun{
			budget: budget * time.Millisecond,
			step: func(context.Context) error {
				order = append(order, i)
				steps++
				time.Sleep(5 * time.Millisecond)
				return nil
			},
			settle: func(keep float64) {
				if keep <= 0 || keep > 1 {
					t.Errorf("path %d settled with share %v", i, keep)
				}
				settled[i]++
			},
			enough: func() bool { return steps >= 2 },
		})
	}
	if err := interleave(context.Background(), paths); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		if p.used < p.budget || p.steps < 2 || settled[i] != p.steps {
			t.Errorf("path %d: used %v of %v in %d steps, %d settled", i, p.used, p.budget, p.steps, settled[i])
		}
	}
	if len(order) < 3 || order[0] == order[1] && order[1] == order[2] {
		t.Errorf("steps ran path by path: %v", order)
	}
}
