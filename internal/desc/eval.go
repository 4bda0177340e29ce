package desc

import (
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
)

// EvalSnapshot is the account of a description's two sides in one
// search: underlying applications, reused tuples, and the time spent
// inside f and g. Each search worker counts into its own plain copy and
// the search sums them, like its other per-worker counters.
type EvalSnapshot struct {
	// FApplies and GApplies count underlying applications of the two
	// sides.
	FApplies int64 `json:"f_applies"`
	GApplies int64 `json:"g_applies"`
	// FHits and GHits count tuples reused instead of applied: f(v) from
	// the edge that admitted v, read again when v is classified, and g(u)
	// from u's classification, read again when u is expanded. Hits +
	// applies equals the lookups the search made.
	FHits int64 `json:"f_hits"`
	GHits int64 `json:"g_hits"`
	// InflightWaits is always 0: workers share no evaluation state, so
	// no lookup ever waits on another worker's application. The field
	// stays for readers of the JSON schema.
	InflightWaits int64 `json:"inflight_waits,omitempty"`
	// FNanos and GNanos are the wall-clock nanoseconds spent inside
	// interpreted applications (compiled ones are not timed, see
	// Worker.F).
	FNanos int64 `json:"f_nanos"`
	GNanos int64 `json:"g_nanos"`
}

// CacheHits returns the reused tuples across both sides.
func (s EvalSnapshot) CacheHits() int64 { return s.FHits + s.GHits }

// CacheMisses returns the underlying applications across both sides.
func (s EvalSnapshot) CacheMisses() int64 { return s.FApplies + s.GApplies }

// Add folds o's counts into s.
func (s *EvalSnapshot) Add(o EvalSnapshot) {
	s.FApplies += o.FApplies
	s.GApplies += o.GApplies
	s.FHits += o.FHits
	s.GHits += o.GHits
	s.FNanos += o.FNanos
	s.GNanos += o.GNanos
}

// Evaluator is a description's two sides prepared for one search: each
// side that carries fn.TraceIR is lowered to descvm bytecode once, and a
// side without IR (an opaque Go-closure combinator) keeps the
// interpreter, TraceFn.Apply, which also stays the differential oracle.
// The Evaluator holds no per-trace state; evaluation goes through
// Workers, one per goroutine.
type Evaluator struct {
	d     Description
	fprog *descvm.Prog
	gprog *descvm.Prog
}

// NewEvaluator compiles d's sides.
func NewEvaluator(d Description) *Evaluator {
	e := &Evaluator{d: d}
	if p, ok := descvm.Compile(d.F); ok {
		e.fprog = p
	}
	if p, ok := descvm.Compile(d.G); ok {
		e.gprog = p
	}
	return e
}

// Compiled reports whether both sides run on descvm bytecode.
func (e *Evaluator) Compiled() bool { return e.fprog != nil && e.gprog != nil }

// Worker is one goroutine's evaluation handle: dedicated descvm
// sessions for the compiled sides, whose frame caches survive the whole
// search. Each search worker owns one; a Worker is never shared.
type Worker struct {
	d     Description
	fsess *descvm.Session
	gsess *descvm.Session
}

// NewWorker returns a fresh single-goroutine handle.
func (e *Evaluator) NewWorker() *Worker {
	w := &Worker{d: e.d}
	if e.fprog != nil {
		w.fsess = e.fprog.NewSession()
	}
	if e.gprog != nil {
		w.gsess = e.gprog.NewSession()
	}
	return w
}

// F applies the left side to t, counting the application in c. Only
// interpreted applications are timed: at the paper's spec sizes two
// time.Now calls cost as much as a whole compiled evaluation, so compiled
// runs add nothing to FNanos. The wall-clock fields are excluded from
// fingerprints either way.
func (w *Worker) F(t trace.Trace, c *EvalSnapshot) fn.Tuple {
	c.FApplies++
	if w.fsess != nil {
		return w.fsess.Eval(t)
	}
	start := time.Now()
	v := w.d.F.Apply(t)
	c.FNanos += int64(time.Since(start))
	return v
}

// G applies the right side to t, counting the application in c; see F.
func (w *Worker) G(t trace.Trace, c *EvalSnapshot) fn.Tuple {
	c.GApplies++
	if w.gsess != nil {
		return w.gsess.Eval(t)
	}
	start := time.Now()
	v := w.d.G.Apply(t)
	c.GNanos += int64(time.Since(start))
	return v
}
