package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"smoothproc/internal/metrics"
	"smoothproc/internal/solver"
)

// JobState is a job's position in its lifecycle.
type JobState string

// Job lifecycle: queued → running → done | failed | canceled. A job
// cancelled while still queued (shutdown) goes straight to canceled.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Submission errors.
var (
	// ErrQueueFull: the server-wide bounded queue is at capacity — shed
	// load rather than buffer unboundedly. Mapped to 503: the whole
	// server is saturated, any client should back off.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrShutdown: the scheduler no longer accepts work.
	ErrShutdown = errors.New("service: scheduler shutting down")
)

// DefaultTenant names jobs submitted without an X-Smoothproc-Tenant
// header. Quotas and fair queuing apply to it like any other tenant.
const DefaultTenant = "default"

// TenantQuota bounds one tenant's footprint on the scheduler. Zero
// fields mean unlimited. Unlike ErrQueueFull (the server is full for
// everyone, 503), a quota rejection is per-tenant back-pressure (429):
// this caller is over its share while the server still has room.
type TenantQuota struct {
	// MaxQueued bounds the tenant's waiting jobs.
	MaxQueued int
	// MaxRunning bounds the tenant's simultaneously running jobs.
	MaxRunning int
	// NodeBudget caps the sum of static plan estimates (predicted
	// minimum search nodes) across the tenant's queued and running jobs
	// — an admission-control ceiling on in-flight work, not just job
	// count, fed by the specplan estimates.
	NodeBudget uint64
}

// QuotaError is a per-tenant quota rejection. Handlers map it to a
// structured 429 body, distinguishable from the load-shed 503.
type QuotaError struct {
	Tenant  string
	Quota   string // "max_queued" | "node_budget"
	Limit   uint64
	Current uint64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("service: tenant %q over %s quota (%d of %d in flight)",
		e.Tenant, e.Quota, e.Current, e.Limit)
}

// Submission describes one job for Submit: who is asking (tenant,
// trace), what to search (spec, params), and its scheduling inputs
// (timeout, static cost estimate).
type Submission struct {
	// Tenant is the fair-queuing bucket ("" means DefaultTenant).
	Tenant string
	// SpecHash and Params identify the search for JobView.
	SpecHash string
	Params   SolveParams
	// Timeout bounds the run's wall clock (0 = none beyond shutdown).
	Timeout time.Duration
	// Estimate is the static plan's predicted minimum node count: the
	// job's cost in the deficit-round-robin dispatch and its charge
	// against the tenant's NodeBudget. 0 means unknown (cost 1).
	Estimate uint64
	// TraceID is the request-scoped trace identifier threaded from the
	// handler through the queue into the worker's context.
	TraceID string
	// AdmitNs is the handler-side admission span (decode, compile,
	// admission control) in nanoseconds, reported in JobView's spans.
	AdmitNs int64
	// Run executes the search. Its context dies with the scheduler and
	// after Timeout, and carries TraceID (see TraceID function).
	Run func(context.Context) (*SolveResult, error)
}

// Job is one scheduled search. All mutable fields are guarded by the
// scheduler's mutex; handlers read them through View.
type Job struct {
	id       string
	tenant   string
	specHash string
	params   SolveParams
	timeout  time.Duration
	estimate uint64
	cost     uint64
	traceID  string
	admitNs  int64
	run      func(context.Context) (*SolveResult, error)

	state  JobState
	result *SolveResult
	err    string
	// panicked marks a job whose run panicked; err then holds the panic
	// value and stack, which the run span also carries.
	panicked bool
	done     chan struct{}

	// Lifecycle timestamps: submittedAt is set by Submit, startedAt when
	// a worker picks the job up, doneAt at the terminal transition. They
	// feed the per-job spans in JobView and the aggregate timers in
	// /metrics.
	submittedAt time.Time
	startedAt   time.Time
	doneAt      time.Time
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// traceKey carries the request's trace ID through the scheduler into
// the search's context.
type traceKey struct{}

// TraceID returns the trace identifier threaded through ctx ("" when
// the context did not come from a scheduler worker).
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceKey{}).(string)
	return id
}

// DRR dispatch constants: a job's cost is its plan estimate in units of
// jobCostScale nodes, clamped to [1, maxJobCost]; each top-up round
// credits every backlogged tenant drrQuantum. A tenant queueing huge
// searches therefore yields several turns to a tenant queueing small
// ones, instead of monopolizing the pool job-for-job.
const (
	jobCostScale = 1000
	maxJobCost   = 64
	drrQuantum   = 16
)

// jobCost converts a static node estimate into deficit units.
func jobCost(estimate uint64) uint64 {
	c := estimate / jobCostScale
	if c < 1 {
		return 1
	}
	if c > maxJobCost {
		return maxJobCost
	}
	return c
}

// tenantQueue is one tenant's FIFO plus its deficit-round-robin and
// accounting state. Guarded by the scheduler's mutex.
type tenantQueue struct {
	name    string
	queue   []*Job
	deficit uint64
	running int
	// inflight is the sum of estimates across queued + running jobs,
	// checked against TenantQuota.NodeBudget.
	inflight uint64

	submitted metrics.Counter
	completed metrics.Counter
	failed    metrics.Counter
	canceled  metrics.Counter
	rejected  metrics.Counter // quota rejections (429s)
	queueWait metrics.Timer
	runTime   metrics.Timer
}

// TenantStats is one tenant's point-in-time scheduler accounting, for
// /metrics.
type TenantStats struct {
	Tenant    string
	Submitted int64
	Completed int64
	Failed    int64
	Canceled  int64
	Rejected  int64
	Queued    int
	Running   int
	Inflight  uint64
	QueueNs   int64
	RunNs     int64
}

// Scheduler runs jobs on a bounded worker pool with per-tenant weighted
// fair queuing. Each tenant gets its own FIFO; workers dispatch by
// deficit round-robin over the tenant ring, so one tenant flooding the
// queue cannot starve another — a backlogged tenant's jobs interleave
// with everyone else's in proportion to job cost, not arrival order.
// Each job gets its own context derived from the scheduler's base
// context plus the job's deadline, so one adversarial search can
// neither outlive its budget nor survive shutdown. The global queue is
// bounded (ErrQueueFull beyond it); per-tenant quotas reject with
// *QuotaError before the global bound is reached.
type Scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*Job
	order    []string // insertion order, for bounded retention
	nextID   int
	tenants  map[string]*tenantQueue
	ring     []*tenantQueue // tenant arrival order, the DRR scan order
	ringPos  int
	queued   int // jobs waiting across all tenants
	queueCap int
	quota    TenantQuota
	closed   bool
	aborted  bool // Shutdown's deadline expired: cancel still-queued jobs instead of running them
	wg       sync.WaitGroup
	baseCtx  context.Context
	stop     context.CancelFunc

	// Counters for /metrics.
	submitted metrics.Counter
	completed metrics.Counter
	failed    metrics.Counter
	canceled  metrics.Counter

	// Aggregate per-job durations for /metrics: queueWait covers
	// submission to worker pickup (or cancellation while queued), runTime
	// covers pickup to the terminal transition.
	queueWait metrics.Timer
	runTime   metrics.Timer
}

// maxRetainedJobs bounds the finished-job history kept for GET
// /v1/jobs/{id}; the oldest finished jobs are forgotten first.
const maxRetainedJobs = 4096

// NewScheduler starts workers goroutines over a queue of at most
// queueDepth waiting jobs, with no per-tenant quotas.
func NewScheduler(workers, queueDepth int) *Scheduler {
	return NewSchedulerQuota(workers, queueDepth, TenantQuota{})
}

// NewSchedulerQuota starts a scheduler enforcing quota on every tenant.
func NewSchedulerQuota(workers, queueDepth int, quota TenantQuota) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	// The scheduler's base context is a deliberate root: jobs outlive the
	// requests that submit them (a client may disconnect and poll later),
	// so their lifetime hangs off the scheduler, cancelled by Shutdown.
	ctx, cancel := context.WithCancel(context.Background()) //smoothlint:allow ctxflow job lifetime is scheduler-scoped, not request-scoped
	s := &Scheduler{
		jobs:     make(map[string]*Job),
		tenants:  make(map[string]*tenantQueue),
		queueCap: queueDepth,
		quota:    quota,
		baseCtx:  ctx,
		stop:     cancel,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// tenantLocked returns (creating if new) the tenant's queue.
func (s *Scheduler) tenantLocked(name string) *tenantQueue {
	if name == "" {
		name = DefaultTenant
	}
	tq := s.tenants[name]
	if tq == nil {
		tq = &tenantQueue{name: name}
		s.tenants[name] = tq
		s.ring = append(s.ring, tq)
	}
	return tq
}

// Submit enqueues a job on its tenant's queue. The global bound is
// checked first (ErrQueueFull, 503-class), then the tenant's quotas
// (*QuotaError, 429-class), so a saturated server answers "back off,
// everyone" before "back off, you".
func (s *Scheduler) Submit(sub Submission) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	if s.queued >= s.queueCap {
		return nil, ErrQueueFull
	}
	tq := s.tenantLocked(sub.Tenant)
	if s.quota.MaxQueued > 0 && len(tq.queue) >= s.quota.MaxQueued {
		tq.rejected.Inc()
		return nil, &QuotaError{Tenant: tq.name, Quota: "max_queued",
			Limit: uint64(s.quota.MaxQueued), Current: uint64(len(tq.queue))}
	}
	if s.quota.NodeBudget > 0 && tq.inflight+sub.Estimate > s.quota.NodeBudget {
		tq.rejected.Inc()
		return nil, &QuotaError{Tenant: tq.name, Quota: "node_budget",
			Limit: s.quota.NodeBudget, Current: tq.inflight + sub.Estimate}
	}
	s.nextID++
	j := &Job{
		id:          fmt.Sprintf("job-%d", s.nextID),
		tenant:      tq.name,
		specHash:    sub.SpecHash,
		params:      sub.Params,
		timeout:     sub.Timeout,
		estimate:    sub.Estimate,
		cost:        jobCost(sub.Estimate),
		traceID:     sub.TraceID,
		admitNs:     sub.AdmitNs,
		run:         sub.Run,
		state:       JobQueued,
		done:        make(chan struct{}),
		submittedAt: time.Now(),
	}
	tq.queue = append(tq.queue, j)
	tq.inflight += j.estimate
	tq.submitted.Inc()
	s.queued++
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.evictLocked()
	s.submitted.Inc()
	s.cond.Signal()
	return j, nil
}

// evictLocked forgets the oldest terminal jobs beyond the retention
// bound. Live jobs are never evicted.
func (s *Scheduler) evictLocked() {
	for len(s.order) > maxRetainedJobs {
		id := s.order[0]
		if j := s.jobs[id]; j != nil && (j.state == JobQueued || j.state == JobRunning) {
			return // oldest job still live; try again later
		}
		s.order = s.order[1:]
		delete(s.jobs, id)
	}
}

// pickLocked runs one deficit-round-robin dispatch: scan the tenant
// ring from just past the last dispatch; a tenant whose head job fits
// its deficit (and whose running count is under quota) pays the job's
// cost and wins. When no backlogged tenant can afford its head, every
// eligible one is credited a quantum and the scan repeats — bounded,
// because costs are capped at maxJobCost. Returns nil when nothing is
// dispatchable (empty, or all backlogged tenants at MaxRunning).
func (s *Scheduler) pickLocked() (*Job, *tenantQueue) {
	if s.queued == 0 || len(s.ring) == 0 {
		return nil, nil
	}
	for round := 0; round <= maxJobCost/drrQuantum+1; round++ {
		n := len(s.ring)
		for i := 0; i < n; i++ {
			idx := (s.ringPos + i) % n
			tq := s.ring[idx]
			if len(tq.queue) == 0 {
				continue
			}
			if s.quota.MaxRunning > 0 && tq.running >= s.quota.MaxRunning {
				continue
			}
			j := tq.queue[0]
			if tq.deficit < j.cost {
				continue
			}
			tq.deficit -= j.cost
			tq.queue = tq.queue[1:]
			if len(tq.queue) == 0 {
				tq.deficit = 0 // classic DRR: an emptied queue forfeits its credit
			}
			s.queued--
			s.ringPos = (idx + 1) % n
			return j, tq
		}
		credited := false
		for _, tq := range s.ring {
			if len(tq.queue) == 0 {
				continue
			}
			if s.quota.MaxRunning > 0 && tq.running >= s.quota.MaxRunning {
				continue
			}
			tq.deficit += drrQuantum
			credited = true
		}
		if !credited {
			return nil, nil // every backlog is blocked on MaxRunning
		}
	}
	return nil, nil
}

// nextLocked blocks until a job is dispatchable, the scheduler drains
// (graceful close with an empty queue) or aborts. Must hold s.mu.
func (s *Scheduler) nextLocked() (*Job, *tenantQueue) {
	for {
		if s.aborted {
			return nil, nil
		}
		if j, tq := s.pickLocked(); j != nil {
			return j, tq
		}
		if s.closed && s.queued == 0 {
			return nil, nil
		}
		s.cond.Wait()
	}
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		j, tq := s.nextLocked()
		if j == nil {
			s.mu.Unlock()
			return
		}
		j.state = JobRunning
		j.startedAt = time.Now()
		wait := j.startedAt.Sub(j.submittedAt)
		s.queueWait.Observe(wait)
		tq.queueWait.Observe(wait)
		tq.running++
		timeout := j.timeout
		s.mu.Unlock()

		ctx := context.WithValue(s.baseCtx, traceKey{}, j.traceID)
		cancel := context.CancelFunc(func() {})
		if timeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, timeout)
		}
		res, panicked, err := runIsolated(ctx, j.run)
		cancel()

		s.mu.Lock()
		switch {
		case err != nil:
			j.state = JobFailed
			j.err = err.Error()
			j.panicked = panicked
			s.failed.Inc()
			tq.failed.Inc()
		case res != nil && res.Canceled:
			// The deadline (or shutdown) stopped the search; keep the
			// sound partial result but say so.
			j.state = JobCanceled
			j.result = res
			s.canceled.Inc()
			tq.canceled.Inc()
		default:
			j.state = JobDone
			j.result = res
			s.completed.Inc()
			tq.completed.Inc()
		}
		j.doneAt = time.Now()
		run := j.doneAt.Sub(j.startedAt)
		s.runTime.Observe(run)
		tq.runTime.Observe(run)
		tq.running--
		tq.inflight -= j.estimate
		close(j.done)
		// A completion can unblock a MaxRunning-throttled tenant and the
		// shutdown drain, not just one waiter.
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// runIsolated runs one job, turning a panic in it into the job's error:
// one bad job fails alone instead of taking every tenant's work down
// with the daemon. A *solver.WorkerPanic (a search worker's panic,
// re-raised on this goroutine) carries the worker's own stack; any
// other panic is reported with this goroutine's.
func runIsolated(ctx context.Context, run func(context.Context) (*SolveResult, error)) (res *SolveResult, panicked bool, err error) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		res, panicked = nil, true
		if wp, ok := v.(*solver.WorkerPanic); ok {
			err = fmt.Errorf("service: job panicked: %w", wp)
		} else {
			err = fmt.Errorf("service: job panicked: %v\n\n%s", v, debug.Stack())
		}
	}()
	res, err = run(ctx)
	return res, false, err
}

// Get returns the job by ID.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// View snapshots a job for the wire, including its tenant, trace ID and
// per-stage spans: final for terminal jobs, live (still growing) for
// queued and running ones.
func (s *Scheduler) View(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:       j.id,
		State:    j.state,
		Tenant:   j.tenant,
		TraceID:  j.traceID,
		SpecHash: j.specHash,
		Params:   j.params,
		Error:    j.err,
	}
	now := time.Now()
	switch {
	case j.state == JobQueued:
		v.QueueMs = ms(now.Sub(j.submittedAt))
	case j.startedAt.IsZero(): // canceled while queued
		v.QueueMs = ms(j.doneAt.Sub(j.submittedAt))
	case j.state == JobRunning:
		v.QueueMs = ms(j.startedAt.Sub(j.submittedAt))
		v.RunMs = ms(now.Sub(j.startedAt))
	default:
		v.QueueMs = ms(j.startedAt.Sub(j.submittedAt))
		v.RunMs = ms(j.doneAt.Sub(j.startedAt))
	}
	if j.admitNs > 0 {
		v.Spans = append(v.Spans, SpanView{Name: "admit", Ms: ms(time.Duration(j.admitNs))})
	}
	v.Spans = append(v.Spans, SpanView{Name: "queue", Ms: v.QueueMs})
	if !j.startedAt.IsZero() {
		run := SpanView{Name: "run", Ms: v.RunMs}
		if j.panicked {
			run.Error = j.err
		}
		v.Spans = append(v.Spans, run)
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	return v
}

// ms renders a duration in fractional milliseconds for the wire.
func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Durations returns the aggregate queue-wait and run timers for
// /metrics.
func (s *Scheduler) Durations() (queueWait, runTime *metrics.Timer) {
	return &s.queueWait, &s.runTime
}

// Counts returns the lifecycle counters (submitted, completed, failed,
// canceled) for /metrics.
func (s *Scheduler) Counts() (submitted, completed, failed, canceled int64) {
	return s.submitted.Load(), s.completed.Load(), s.failed.Load(), s.canceled.Load()
}

// QueueDepth returns the number of jobs waiting for a worker.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// TenantStats snapshots every tenant's accounting in arrival order.
func (s *Scheduler) TenantStats() []TenantStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]TenantStats, 0, len(s.ring))
	for _, tq := range s.ring {
		out = append(out, TenantStats{
			Tenant:    tq.name,
			Submitted: tq.submitted.Load(),
			Completed: tq.completed.Load(),
			Failed:    tq.failed.Load(),
			Canceled:  tq.canceled.Load(),
			Rejected:  tq.rejected.Load(),
			Queued:    len(tq.queue),
			Running:   tq.running,
			Inflight:  tq.inflight,
			QueueNs:   tq.queueWait.TotalNanos(),
			RunNs:     tq.runTime.TotalNanos(),
		})
	}
	return out
}

// Shutdown stops intake and drains: queued and running jobs keep
// running until done or until ctx expires, at which point the base
// context is cancelled so in-flight searches stop at their next
// cancellation check (returning their sound partial results), and jobs
// still queued transition queued → canceled without ever running. It
// returns ctx.Err() when the deadline forced the drain, nil on a clean
// one.
func (s *Scheduler) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		// Forced drain: cancel every still-queued job here — its only
		// terminal transition, so the done close cannot double-fire —
		// then cancel in-flight searches and wait for the workers.
		s.mu.Lock()
		s.aborted = true
		now := time.Now()
		for _, tq := range s.ring {
			for _, j := range tq.queue {
				j.state = JobCanceled
				j.err = ErrShutdown.Error()
				j.doneAt = now
				wait := now.Sub(j.submittedAt)
				s.queueWait.Observe(wait)
				tq.queueWait.Observe(wait)
				s.canceled.Inc()
				tq.canceled.Inc()
				tq.inflight -= j.estimate
				close(j.done)
			}
			tq.queue = nil
			tq.deficit = 0
		}
		s.queued = 0
		s.cond.Broadcast()
		s.mu.Unlock()
		s.stop() // cancel in-flight searches
		<-drained
		return ctx.Err()
	}
}
