package solver

import (
	"context"
	"runtime"
	"testing"
	"time"

	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
)

// A context cancelled before the search starts must stop every mode
// after at most one node, with the cancellation visible in the result.
func TestEnumerateCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Enumerate(ctx, dfmProblem(6))
	if !res.Canceled || !res.Truncated {
		t.Fatalf("cancelled search: Canceled=%v Truncated=%v, want both true", res.Canceled, res.Truncated)
	}
	if res.Nodes != 1 {
		t.Errorf("cancelled search visited %d nodes, want 1 (the root)", res.Nodes)
	}
	if err := res.Stats.CheckInvariants(res.Truncated); err != nil {
		t.Error(err)
	}
}

func TestEnumerateParallelCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Enumerate(ctx, withWorkers(dfmProblem(6), 4))
	if !res.Canceled || !res.Truncated {
		t.Fatalf("cancelled search: Canceled=%v Truncated=%v, want both true", res.Canceled, res.Truncated)
	}
	// Same accounting as sequential: the root is visited, observed
	// cancelled, and skipped — the old barrier implementation stopped at
	// a level boundary with zero nodes, which diverged from Enumerate.
	if res.Nodes != 1 {
		t.Errorf("cancelled parallel search visited %d nodes, want 1 (the root, skipped)", res.Nodes)
	}
	if err := res.Stats.CheckInvariants(res.Truncated); err != nil {
		t.Error(err)
	}
}

func TestSampleCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Sample(ctx, dfmProblem(6), SampleOpts{Seed: 1, Walks: 64})
	if !s.Canceled {
		t.Fatal("cancelled sampling did not report Canceled")
	}
	if s.Steps != 0 {
		t.Errorf("cancelled sampling took %d steps, want 0", s.Steps)
	}
}

func TestCheckInductionCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := CheckInduction(ctx, dfmProblem(4), func(trace.Trace) bool { return true })
	if err == nil {
		t.Fatal("cancelled induction check returned nil error")
	}
}

// A deadline must bound a search that the depth alone would let run far
// longer; the partial result still satisfies the stats invariants, and
// solutions found before the deadline are genuine.
func TestEnumerateDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	// Depth 64 on the dfm problem is far beyond what a millisecond allows.
	res := Enumerate(ctx, dfmProblem(64))
	if !res.Canceled {
		t.Skip("search finished before the deadline; nothing to assert")
	}
	if !res.Truncated {
		t.Error("Canceled without Truncated")
	}
	if err := res.Stats.CheckInvariants(res.Truncated); err != nil {
		t.Error(err)
	}
	full := Enumerate(context.Background(), dfmProblem(6))
	for _, s := range res.Solutions {
		if !full.Contains(s) && s.Len() > 6 {
			continue // beyond the comparison depth
		}
		if s.Len() <= 6 && !full.Contains(s) {
			t.Errorf("pre-deadline solution %s is not a real solution", s)
		}
	}
}

// An uncancelled context must leave results bit-identical to before the
// context plumbing existed: Canceled stays false everywhere.
func TestBackgroundContextIsNeutral(t *testing.T) {
	p := dfmProblem(4)
	seq := Enumerate(context.Background(), p)
	par := Enumerate(context.Background(), withWorkers(p, 4))
	if seq.Canceled || par.Canceled {
		t.Fatal("background context produced Canceled results")
	}
	if got, want := par.SolutionKeys(), seq.SolutionKeys(); len(got) != len(want) {
		t.Fatalf("parallel found %d solutions, sequential %d", len(got), len(want))
	}
}

// A side that panics on a spawned worker must reach the caller as a
// panic, not kill the process, and the search must leave no worker
// behind. Which worker meets the panicking trace is up to the
// scheduler, so the search runs repeatedly: a panic on the calling
// goroutine (worker 0) propagates as is, one on a spawned worker
// arrives wrapped in a WorkerPanic carrying the worker's stack.
func TestWorkerPanicReachesCaller(t *testing.T) {
	p := dfmProblem(5)
	var target trace.Trace
	for _, v := range Enumerate(context.Background(), p).Visited {
		if v.Len() == 3 {
			target = v
		}
	}
	if target.Len() != 3 {
		t.Fatal("dfm tree has no depth-3 node")
	}
	want := "side panicked on " + target.String()
	g := p.D.G
	p.D.G.IR = nil
	p.D.G.Apply = func(tr trace.Trace) fn.Tuple {
		if tr.Equal(target) {
			panic(want)
		}
		return g.Apply(tr)
	}
	p.Workers = 4

	before := runtime.NumGoroutine()
	spawned := 0
	for i := 0; i < 20; i++ {
		got := func() (v any) {
			defer func() { v = recover() }()
			Enumerate(context.Background(), p)
			return nil
		}()
		if wp, ok := got.(*WorkerPanic); ok {
			if len(wp.Stack) == 0 {
				t.Error("WorkerPanic carries no stack")
			}
			got = wp.Value
			spawned++
		}
		if got != want {
			t.Fatalf("run %d: recovered %v, want %q", i, got, want)
		}
	}
	t.Logf("%d of 20 panics arose on a spawned worker", spawned)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// A panicking OnSolution callback runs under the pool lock; it must
// still reach the caller, at one worker and at several, without
// leaving the lock held for the draining workers.
func TestOnSolutionPanicReachesCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := withWorkers(dfmProblem(4), workers)
		p.OnSolution = func(trace.Trace) { panic("callback panicked") }
		got := func() (v any) {
			defer func() { v = recover() }()
			Enumerate(context.Background(), p)
			return nil
		}()
		if wp, ok := got.(*WorkerPanic); ok {
			got = wp.Value
		}
		if got != "callback panicked" {
			t.Errorf("w%d: recovered %v", workers, got)
		}
	}
}
