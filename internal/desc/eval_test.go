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

// TestEvaluatorTransparent: memoized evaluation agrees with direct
// application of both sides on every prefix, in any query order —
// compiled (the default for sides that carry IR) and interpreted (IR
// cleared, the fallback for opaque sides).
func TestEvaluatorTransparent(t *testing.T) {
	t.Run("compiled", func(t *testing.T) {
		e := checkEvaluatorTransparent(t, evalTestDesc())
		if !e.Compiled() {
			t.Error("sides with IR were not lowered to bytecode")
		}
	})
	t.Run("interpreted", func(t *testing.T) {
		d := evalTestDesc()
		d.F.IR, d.G.IR = nil, nil
		e := checkEvaluatorTransparent(t, d)
		if e.Compiled() {
			t.Error("sides without IR reported as compiled")
		}
		// Only interpreted applications are timed (see timedRun).
		if s := e.Snapshot(); s.FNanos <= 0 || s.GNanos <= 0 {
			t.Errorf("timers not running: f=%dns g=%dns", s.FNanos, s.GNanos)
		}
	})
}

func checkEvaluatorTransparent(t *testing.T, d Description) *Evaluator {
	t.Helper()
	e := NewEvaluator(d, true)
	traces := evalTestTraces()
	// Query twice, second pass entirely from cache.
	for pass := 0; pass < 2; pass++ {
		for _, tr := range traces {
			if !e.F(tr).Equal(d.F.Apply(tr)) {
				t.Errorf("pass %d: F(%s) mismatch", pass, tr)
			}
			if !e.G(tr).Equal(d.G.Apply(tr)) {
				t.Errorf("pass %d: G(%s) mismatch", pass, tr)
			}
			if e.LimitOK(tr) != d.LimitOK(tr) {
				t.Errorf("pass %d: LimitOK(%s) mismatch", pass, tr)
			}
		}
	}
	for _, tr := range traces[1:] {
		u := tr.Take(tr.Len() - 1)
		if e.EdgeOK(u, tr) != d.EdgeOK(u, tr) {
			t.Errorf("EdgeOK(%s, %s) mismatch", u, tr)
		}
	}
	s := e.Snapshot()
	if s.FApplies != int64(len(traces)) || s.GApplies != int64(len(traces)) {
		t.Errorf("applies = %d/%d, want %d each (one per distinct trace)",
			s.FApplies, s.GApplies, len(traces))
	}
	if s.CacheHits() == 0 {
		t.Error("no cache hits on repeated queries")
	}
	return e
}

// TestEvaluatorUnmemoized: with the cache off every query applies the
// underlying function and no hit is ever recorded.
func TestEvaluatorUnmemoized(t *testing.T) {
	d := evalTestDesc()
	e := NewEvaluator(d, false)
	tr := evalTestTraces()[2]
	for i := 0; i < 3; i++ {
		e.F(tr)
		e.G(tr)
	}
	s := e.Snapshot()
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

// TestEvaluatorConcurrent hammers one evaluator from several goroutines —
// the multi-worker search's sharing pattern — and checks the results stay
// correct and the books balance.
func TestEvaluatorConcurrent(t *testing.T) {
	d := evalTestDesc()
	e := NewEvaluator(d, true)
	traces := evalTestTraces()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := traces[i%len(traces)]
				if !e.F(tr).Equal(d.F.Apply(tr)) {
					select {
					case errs <- "F mismatch on " + tr.String():
					default:
					}
				}
				if !e.G(tr).Equal(d.G.Apply(tr)) {
					select {
					case errs <- "G mismatch on " + tr.String():
					default:
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	s := e.Snapshot()
	total := s.CacheHits() + s.CacheMisses()
	if total != 2*8*200 {
		t.Errorf("hits+misses = %d, want %d", total, 2*8*200)
	}
}

// TestEvaluatorOmegaConst: OmegaConstFn's approximation depends on the
// trace length, which the memo key determines — caching stays exact.
func TestEvaluatorOmegaConst(t *testing.T) {
	d := MustNew("ticks", fn.ChanFn("b"), fn.OmegaConstFn("trues", seq.Of(value.T)))
	e := NewEvaluator(d, true)
	for n := 0; n <= 4; n++ {
		tr := trace.CycleGen("t", trace.Of(trace.E("b", value.T))).Prefix(n)
		for i := 0; i < 2; i++ {
			if !e.G(tr).Equal(d.G.Apply(tr)) {
				t.Errorf("G mismatch at depth %d", n)
			}
		}
	}
}

// TestEvaluatorCollisionFallback forges two distinct traces onto the
// same (hash, length) memo key and checks the evaluator's equality
// fallback: the collision costs a second application (a miss), never a
// wrong cached tuple.
func TestEvaluatorCollisionFallback(t *testing.T) {
	d := evalTestDesc()
	a := trace.Of(trace.E("b", value.Int(0)), trace.E("d", value.Int(0)))
	b := trace.Of(trace.E("c", value.Int(1)), trace.E("d", value.Int(1)))
	fa, fb := trace.WithKeyHash(a, 0x42), trace.WithKeyHash(b, 0x42)
	if fa.Key() != fb.Key() {
		t.Fatal("forged keys should collide")
	}
	e := NewEvaluator(d, true)
	va, vb := e.F(fa), e.F(fb)
	if !va.Equal(d.F.Apply(a)) || !vb.Equal(d.F.Apply(b)) {
		t.Fatal("collision produced a wrong tuple")
	}
	if va.Equal(vb) {
		t.Fatal("test needs traces with distinct images")
	}
	s := e.Snapshot()
	if s.FApplies != 2 || s.FHits != 0 {
		t.Errorf("collision accounting: applies=%d hits=%d, want 2 misses", s.FApplies, s.FHits)
	}
	// Both entries live in one bucket; each is now served as a hit.
	if got := e.F(fa); !got.Equal(va) {
		t.Error("first colliding entry lost")
	}
	if got := e.F(fb); !got.Equal(vb) {
		t.Error("second colliding entry lost")
	}
	s = e.Snapshot()
	if s.FApplies != 2 || s.FHits != 2 {
		t.Errorf("post-collision accounting: applies=%d hits=%d, want 2 and 2", s.FApplies, s.FHits)
	}
}
