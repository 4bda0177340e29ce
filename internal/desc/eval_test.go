package desc

import (
	"sync"
	"testing"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

func evalTestDesc() Description {
	return Combine("dfm",
		MustNew("even", fn.OnChan(fn.Even, "d"), fn.ChanFn("b")),
		MustNew("odd", fn.OnChan(fn.Odd, "d"), fn.ChanFn("c")),
	)
}

func evalTestTraces() []trace.Trace {
	base := trace.Of(
		trace.E("b", value.Int(0)), trace.E("d", value.Int(0)),
		trace.E("c", value.Int(1)), trace.E("d", value.Int(1)),
	)
	return base.Prefixes()
}

// TestEvaluatorTransparent: a worker's evaluation agrees with direct
// application of both sides on every prefix, in any query order —
// compiled (the default for sides that carry IR) and interpreted (IR
// cleared, the fallback for opaque sides) — and counts one application
// per call.
func TestEvaluatorTransparent(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		e, _ := checkEvaluatorTransparent(t, evalTestDesc())
		if !e.Compiled() {
			t.Error("sides with IR were not lowered to bytecode")
		}
	})
	t.Run("interpreted", func(t *testing.T) {
		d := evalTestDesc()
		d.F.IR, d.G.IR = nil, nil
		e, s := checkEvaluatorTransparent(t, d)
		if e.Compiled() {
			t.Error("sides without IR reported as compiled")
		}
		// Only interpreted applications are timed (see Worker.F).
		if s.FNanos <= 0 || s.GNanos <= 0 {
			t.Errorf("timers not running: f=%dns g=%dns", s.FNanos, s.GNanos)
		}
	})
}

func checkEvaluatorTransparent(t *testing.T, d Description) (*Evaluator, EvalSnapshot) {
	t.Helper()
	e := NewEvaluator(d)
	w := e.NewWorker()
	var s EvalSnapshot
	traces := evalTestTraces()
	// Forwards, then backwards: the worker's frame caches must not leak
	// one base into another trace's answer.
	for pass := 0; pass < 2; pass++ {
		for i := range traces {
			tr := traces[i]
			if pass == 1 {
				tr = traces[len(traces)-1-i]
			}
			if !w.F(tr, &s).Equal(d.F.Apply(tr)) {
				t.Errorf("pass %d: F(%s) mismatch", pass, tr)
			}
			if !w.G(tr, &s).Equal(d.G.Apply(tr)) {
				t.Errorf("pass %d: G(%s) mismatch", pass, tr)
			}
		}
	}
	if want := int64(2 * len(traces)); s.FApplies != want || s.GApplies != want {
		t.Errorf("applies = %d/%d, want %d each (one per call)", s.FApplies, s.GApplies, want)
	}
	return e, s
}

// TestEvaluatorUnmemoized: a worker keeps no per-trace state — every
// call applies the side, and no hit is ever recorded (hits are the
// search's reuses, not the evaluator's).
func TestEvaluatorUnmemoized(t *testing.T) {
	d := evalTestDesc()
	w := NewEvaluator(d).NewWorker()
	var s EvalSnapshot
	tr := evalTestTraces()[2]
	for i := 0; i < 3; i++ {
		w.F(tr, &s)
		w.G(tr, &s)
	}
	if s.FApplies != 3 || s.GApplies != 3 {
		t.Errorf("applies = %d/%d, want 3 each", s.FApplies, s.GApplies)
	}
	if s.CacheHits() != 0 {
		t.Errorf("hits = %d, want 0", s.CacheHits())
	}
	if s.CacheMisses() != 6 {
		t.Errorf("misses = %d, want 6", s.CacheMisses())
	}
}

// TestEvaluatorConcurrent runs one evaluator's workers on several
// goroutines — the multi-worker search's sharing pattern: one compiled
// program per side, one handle per goroutine — and checks the results
// stay correct and each worker's books balance.
func TestEvaluatorConcurrent(t *testing.T) {
	d := evalTestDesc()
	e := NewEvaluator(d)
	traces := evalTestTraces()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	snaps := make([]EvalSnapshot, 8)
	for g := range snaps {
		wg.Add(1)
		go func(s *EvalSnapshot) {
			defer wg.Done()
			w := e.NewWorker()
			for i := 0; i < 200; i++ {
				tr := traces[i%len(traces)]
				if !w.F(tr, s).Equal(d.F.Apply(tr)) {
					select {
					case errs <- "F mismatch on " + tr.String():
					default:
					}
				}
				if !w.G(tr, s).Equal(d.G.Apply(tr)) {
					select {
					case errs <- "G mismatch on " + tr.String():
					default:
					}
				}
			}
		}(&snaps[g])
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	var total EvalSnapshot
	for _, s := range snaps {
		total.Add(s)
	}
	if got := total.CacheMisses(); got != 2*8*200 {
		t.Errorf("applies = %d, want %d", got, 2*8*200)
	}
}

// TestEvaluatorOmegaConst: OmegaConstFn's approximation depends on the
// trace length, which the compiled frames must track exactly.
func TestEvaluatorOmegaConst(t *testing.T) {
	d := MustNew("ticks", fn.ChanFn("b"), fn.OmegaConstFn("trues", seq.Of(value.T)))
	w := NewEvaluator(d).NewWorker()
	var s EvalSnapshot
	for n := 0; n <= 4; n++ {
		tr := trace.CycleGen("t", trace.Of(trace.E("b", value.T))).Prefix(n)
		for i := 0; i < 2; i++ {
			if !w.G(tr, &s).Equal(d.G.Apply(tr)) {
				t.Errorf("G mismatch at depth %d", n)
			}
		}
	}
}

// TestEvaluatorCollisionFallback forges two distinct traces onto the
// same (hash, length) key and checks that a worker tells them apart: its
// frame caches match bases by trace equality, so a key collision costs
// a reload, never a wrong tuple.
func TestEvaluatorCollisionFallback(t *testing.T) {
	d := evalTestDesc()
	a := trace.Of(trace.E("b", value.Int(0)), trace.E("d", value.Int(0)))
	b := trace.Of(trace.E("c", value.Int(1)), trace.E("d", value.Int(1)))
	fa, fb := trace.WithKeyHash(a, 0x42), trace.WithKeyHash(b, 0x42)
	if fa.Key() != fb.Key() {
		t.Fatal("forged keys should collide")
	}
	w := NewEvaluator(d).NewWorker()
	var s EvalSnapshot
	for i := 0; i < 2; i++ {
		va, vb := w.F(fa, &s), w.F(fb, &s)
		if !va.Equal(d.F.Apply(a)) || !vb.Equal(d.F.Apply(b)) {
			t.Fatal("collision produced a wrong tuple")
		}
		if va.Equal(vb) {
			t.Fatal("test needs traces with distinct images")
		}
	}
	if s.FApplies != 4 || s.FHits != 0 {
		t.Errorf("collision accounting: applies=%d hits=%d, want 4 and 0", s.FApplies, s.FHits)
	}
}
