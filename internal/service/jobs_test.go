package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smoothproc/internal/solver"
)

func okResult() *SolveResult { return &SolveResult{Nodes: 1} }

// submitFn is shorthand for the common single-tenant test submission.
func submitFn(s *Scheduler, timeout time.Duration, fn func(context.Context) (*SolveResult, error)) (*Job, error) {
	return s.Submit(Submission{SpecHash: "h", Timeout: timeout, Run: fn})
}

func TestSchedulerRunsJobs(t *testing.T) {
	s := NewScheduler(4, 16)
	defer s.Shutdown(context.Background())
	var ran atomic.Int64
	var jobs []*Job
	for i := 0; i < 8; i++ {
		j, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
			ran.Add(1)
			return okResult(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
		if v := s.View(j); v.State != JobDone || v.Result == nil {
			t.Errorf("job %s: state %s result %v", v.ID, v.State, v.Result)
		}
	}
	if ran.Load() != 8 {
		t.Errorf("ran %d jobs, want 8", ran.Load())
	}
	submitted, completed, _, _ := s.Counts()
	if submitted != 8 || completed != 8 {
		t.Errorf("counters submitted=%d completed=%d, want 8/8", submitted, completed)
	}
}

func TestSchedulerQueueFull(t *testing.T) {
	s := NewScheduler(1, 1)
	defer s.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	// Occupy the single worker...
	if _, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		close(started)
		<-release
		return okResult(), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...fill the queue...
	if _, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}); err != nil {
		t.Fatal(err)
	}
	// ...and the next submission must shed load.
	if _, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
}

func TestSchedulerJobFailure(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Shutdown(context.Background())
	j, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if v := s.View(j); v.State != JobFailed || v.Error != "boom" {
		t.Errorf("state=%s error=%q, want failed/boom", v.State, v.Error)
	}
	_, _, failed, _ := s.Counts()
	if failed != 1 {
		t.Errorf("failed counter = %d, want 1", failed)
	}
}

func TestSchedulerJobDeadline(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Shutdown(context.Background())
	j, err := submitFn(s, 5*time.Millisecond, func(ctx context.Context) (*SolveResult, error) {
		<-ctx.Done() // a well-behaved search notices the deadline...
		return &SolveResult{Canceled: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if v := s.View(j); v.State != JobCanceled || v.Result == nil {
		t.Errorf("state=%s result=%v, want canceled with partial result", v.State, v.Result)
	}
}

func TestSchedulerShutdownDrains(t *testing.T) {
	s := NewScheduler(1, 4)
	var finished atomic.Bool
	j, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		time.Sleep(30 * time.Millisecond)
		finished.Store(true)
		return okResult(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("clean drain returned %v", err)
	}
	if !finished.Load() {
		t.Error("shutdown returned before the in-flight job finished")
	}
	if v := s.View(j); v.State != JobDone {
		t.Errorf("drained job state = %s, want done", v.State)
	}
	if _, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-shutdown Submit err = %v, want ErrShutdown", err)
	}
}

func TestSchedulerForcedShutdownCancels(t *testing.T) {
	s := NewScheduler(1, 4)
	started := make(chan struct{})
	j, err := submitFn(s, 0, func(ctx context.Context) (*SolveResult, error) {
		close(started)
		<-ctx.Done() // runs until shutdown forces cancellation
		return &SolveResult{Canceled: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	if v := s.View(j); v.State != JobCanceled {
		t.Errorf("forced job state = %s, want canceled", v.State)
	}
}

// TestSchedulerForcedShutdownCancelsQueued: jobs that never reached a
// worker before a forced shutdown transition queued → canceled — their
// run closures are never invoked, their done channels close exactly
// once, and the /metrics canceled counter sees each of them. (Before
// this path existed, still-queued jobs were run to completion against
// the dead base context, and the worker's cancelled-while-waiting
// branch leaked the done channel.)
func TestSchedulerForcedShutdownCancelsQueued(t *testing.T) {
	s := NewScheduler(1, 8)
	started := make(chan struct{})
	running, err := submitFn(s, 0, func(ctx context.Context) (*SolveResult, error) {
		close(started)
		<-ctx.Done() // occupy the only worker until the forced drain
		return &SolveResult{Canceled: true}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Int64
	var queued []*Job
	for i := 0; i < 4; i++ {
		j, err := submitFn(s, 0, func(context.Context) (*SolveResult, error) {
			ran.Add(1)
			return okResult(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced drain returned %v, want deadline exceeded", err)
	}
	if v := s.View(running); v.State != JobCanceled {
		t.Errorf("running job state = %s, want canceled", v.State)
	}
	for _, j := range queued {
		select {
		case <-j.Done(): // closed exactly once — a second close would have panicked a worker
		default:
			t.Fatalf("job %s: done channel not closed after drain", s.View(j).ID)
		}
		if v := s.View(j); v.State != JobCanceled || v.Error != ErrShutdown.Error() {
			t.Errorf("queued job %s: state=%s error=%q, want canceled/%q", v.ID, v.State, v.Error, ErrShutdown)
		}
	}
	if ran.Load() != 0 {
		t.Errorf("%d queued jobs ran during forced shutdown, want 0", ran.Load())
	}
	_, _, _, canceled := s.Counts()
	if canceled != 5 { // the running job plus the four queued ones
		t.Errorf("canceled counter = %d, want 5", canceled)
	}
}

func TestSchedulerShutdownIdempotent(t *testing.T) {
	s := NewScheduler(1, 1)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulerTenantFairness: with a single worker and one tenant's
// backlog queued ahead, a second tenant's jobs interleave by deficit
// round-robin instead of waiting behind the whole backlog — the
// fairness property the per-tenant refactor exists for.
func TestSchedulerTenantFairness(t *testing.T) {
	s := NewScheduler(1, 32)
	defer s.Shutdown(context.Background())
	gateStarted := make(chan struct{})
	release := make(chan struct{})
	// Occupy the worker so every subsequent submission queues.
	if _, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		close(gateStarted)
		<-release
		return okResult(), nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-gateStarted

	var mu sync.Mutex
	var order []string
	var jobs []*Job
	enqueue := func(tenant string, n int) {
		for i := 0; i < n; i++ {
			j, err := s.Submit(Submission{Tenant: tenant, SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
				mu.Lock()
				order = append(order, tenant)
				mu.Unlock()
				return okResult(), nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, j)
		}
	}
	enqueue("alice", 6) // the flood, queued first
	enqueue("bob", 3)   // the light tenant, queued last

	close(release)
	for _, j := range jobs {
		<-j.Done()
	}

	mu.Lock()
	defer mu.Unlock()
	bobDone := 0
	for i, tenant := range order {
		if tenant == "bob" {
			bobDone++
		}
		// All of bob's jobs must finish within the first six completions:
		// strict FIFO would hold them until positions 7–9.
		if i == 5 && bobDone != 3 {
			t.Fatalf("after 6 completions bob finished %d/3 jobs (order %v); tenant starved", bobDone, order)
		}
	}
}

func TestSchedulerQuotaMaxQueued(t *testing.T) {
	s := NewSchedulerQuota(1, 32, TenantQuota{MaxQueued: 2})
	defer s.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		close(started)
		<-release
		return okResult(), nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
			return okResult(), nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	_, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != "max_queued" || qe.Tenant != "alice" {
		t.Fatalf("err = %v, want *QuotaError{alice, max_queued}", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Fatal("quota rejection must be distinguishable from the global queue-full error")
	}
	// Another tenant is unaffected: the server has room, alice is over
	// *her* share.
	if _, err := s.Submit(Submission{Tenant: "bob", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}}); err != nil {
		t.Fatalf("other tenant rejected alongside the over-quota one: %v", err)
	}
}

func TestSchedulerQuotaNodeBudget(t *testing.T) {
	s := NewSchedulerQuota(1, 32, TenantQuota{NodeBudget: 1000})
	defer s.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	if _, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Estimate: 600, Run: func(context.Context) (*SolveResult, error) {
		close(started)
		<-release
		return okResult(), nil
	}}); err != nil {
		t.Fatal(err)
	}
	<-started
	_, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Estimate: 600, Run: func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}})
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Quota != "node_budget" {
		t.Fatalf("err = %v, want *QuotaError{node_budget}", err)
	}
	if qe.Limit != 1000 || qe.Current != 1200 {
		t.Errorf("quota error limit=%d current=%d, want 1000/1200", qe.Limit, qe.Current)
	}
}

// TestSchedulerQuotaMaxRunning: a tenant at its running cap keeps its
// next job queued even with idle workers; the job dispatches once a
// running one finishes.
func TestSchedulerQuotaMaxRunning(t *testing.T) {
	s := NewSchedulerQuota(2, 32, TenantQuota{MaxRunning: 1})
	defer s.Shutdown(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	first, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		close(started)
		<-release
		return okResult(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if v := s.View(second); v.State != JobQueued {
		t.Fatalf("second job state = %s while the first still runs, want queued (MaxRunning=1)", v.State)
	}
	close(release)
	<-first.Done()
	<-second.Done()
	if v := s.View(second); v.State != JobDone {
		t.Errorf("second job state = %s after release, want done", v.State)
	}
}

// TestSchedulerSpans: a finished job reports its admit/queue/run spans
// and carries tenant and trace ID through to the view.
func TestSchedulerSpans(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Shutdown(context.Background())
	var got string
	j, err := s.Submit(Submission{Tenant: "alice", SpecHash: "h", TraceID: "t-123", AdmitNs: 42_000, Run: func(ctx context.Context) (*SolveResult, error) {
		got = TraceID(ctx)
		return okResult(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-j.Done()
	if got != "t-123" {
		t.Errorf("TraceID(ctx) in worker = %q, want t-123", got)
	}
	v := s.View(j)
	if v.Tenant != "alice" || v.TraceID != "t-123" {
		t.Errorf("view tenant=%q trace=%q, want alice/t-123", v.Tenant, v.TraceID)
	}
	names := make([]string, 0, len(v.Spans))
	for _, sp := range v.Spans {
		names = append(names, sp.Name)
	}
	if len(names) != 3 || names[0] != "admit" || names[1] != "queue" || names[2] != "run" {
		t.Errorf("span names = %v, want [admit queue run]", names)
	}
}

// TestSchedulerIsolatesPanics: a job whose run panics fails alone — its
// state is failed, its error and run span carry the panic value and
// stack, the failed counters move, its tenant's running slot is released
// — and a later job on the same single-worker scheduler still completes.
func TestSchedulerIsolatesPanics(t *testing.T) {
	s := NewScheduler(1, 4)
	defer s.Shutdown(context.Background())
	bad, err := s.Submit(Submission{Tenant: "mallory", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		panic("side exploded")
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-bad.Done()
	v := s.View(bad)
	if v.State != JobFailed || v.Result != nil {
		t.Fatalf("panicking job: state %s result %v, want failed and no result", v.State, v.Result)
	}
	if !strings.Contains(v.Error, "side exploded") || !strings.Contains(v.Error, "goroutine") {
		t.Errorf("job error %q lacks the panic value or stack", v.Error)
	}
	if run := v.Spans[len(v.Spans)-1]; run.Name != "run" || run.Error != v.Error {
		t.Errorf("run span %+v does not carry the panic", run)
	}
	if _, _, failed, _ := s.Counts(); failed != 1 {
		t.Errorf("failed counter = %d, want 1", failed)
	}

	good, err := s.Submit(Submission{Tenant: "mallory", SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		return okResult(), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-good.Done()
	if v := s.View(good); v.State != JobDone || v.Spans[len(v.Spans)-1].Error != "" {
		t.Errorf("job after the panic: state %s spans %+v, want done with a clean run span", v.State, v.Spans)
	}
	for _, ts := range s.TenantStats() {
		if ts.Tenant == "mallory" && (ts.Failed != 1 || ts.Completed != 1 || ts.Running != 0 || ts.Inflight != 0) {
			t.Errorf("tenant accounting after the panic: %+v", ts)
		}
	}

	// A search worker's panic re-raised on the job's goroutine reports the
	// worker's stack, not the re-raise site's.
	wp, err := s.Submit(Submission{SpecHash: "h", Run: func(context.Context) (*SolveResult, error) {
		panic(&solver.WorkerPanic{Value: "worker exploded", Stack: []byte("worker-stack-frames")})
	}})
	if err != nil {
		t.Fatal(err)
	}
	<-wp.Done()
	if v := s.View(wp); v.State != JobFailed || !strings.Contains(v.Error, "worker exploded") || !strings.Contains(v.Error, "worker-stack-frames") {
		t.Errorf("worker panic: state %s error %q", v.State, v.Error)
	}
}
