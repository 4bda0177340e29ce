package solver_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/fn"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// applyLog records every trace a side is applied to.
type applyLog struct {
	mu    sync.Mutex
	count map[string]int
	total int64
}

// wrap returns side as an opaque Go closure (IR cleared, so the search
// calls Apply) that records each application in l.
func (l *applyLog) wrap(side fn.TraceFn) fn.TraceFn {
	apply := side.Apply
	side.IR = nil
	side.Apply = func(t trace.Trace) fn.Tuple {
		l.mu.Lock()
		l.count[t.String()]++
		l.total++
		l.mu.Unlock()
		return apply(t)
	}
	return side
}

// repeats returns the traces applied more than once.
func (l *applyLog) repeats() []string {
	var out []string
	for t, n := range l.count {
		if n > 1 {
			out = append(out, t)
		}
	}
	return out
}

// TestEachTraceAppliedAtMostOnce is the at-most-once contract of
// Enumerate and of a capture resumed to the same depth: every f(v) is
// handed from the edge that admitted v to v's limit check and every g(u)
// from u's limit check to u's expansion, so no side is applied twice to
// one trace — at any worker count — and the FApplies/GApplies counters
// equal the applications that really happened. The CI invariants job
// runs this package with -race.
func TestEachTraceAppliedAtMostOnce(t *testing.T) {
	specs := []string{"fig2-dfm.eq", "fig4-brock-ackermann.eq", "kahn-buffer.eq", "fairmerge.eq"}
	for _, name := range specs {
		src, err := os.ReadFile(filepath.Join("..", "..", "specs", name))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 2, 4} {
			for _, leg := range []string{"enumerate", "capture-resume"} {
				fl := &applyLog{count: map[string]int{}}
				gl := &applyLog{count: map[string]int{}}
				p := prog.Problem()
				p.D.F, p.D.G = fl.wrap(p.D.F), gl.wrap(p.D.G)
				p.Workers = workers
				var res solver.Result
				if leg == "enumerate" {
					res = solver.Enumerate(context.Background(), p)
				} else {
					depth := p.MaxDepth
					p.MaxDepth = max(depth-2, 0)
					_, cp := solver.EnumerateCapture(context.Background(), p)
					if res, err = cp.Resume(context.Background(), solver.ResumeOpts{MaxDepth: depth, Workers: workers, Final: true}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				ev := res.Stats.Eval
				if r := fl.repeats(); len(r) > 0 {
					t.Errorf("%s w%d %s: f applied more than once to %d traces, e.g. %s", name, workers, leg, len(r), r[0])
				}
				if r := gl.repeats(); len(r) > 0 {
					t.Errorf("%s w%d %s: g applied more than once to %d traces, e.g. %s", name, workers, leg, len(r), r[0])
				}
				if ev.FApplies != fl.total || ev.GApplies != gl.total {
					t.Errorf("%s w%d %s: counters report %d/%d applications, sides saw %d/%d",
						name, workers, leg, ev.FApplies, ev.GApplies, fl.total, gl.total)
				}
				if ev.CacheHits() == 0 {
					t.Errorf("%s w%d %s: no tuple was reused", name, workers, leg)
				}
			}
		}
	}
}
