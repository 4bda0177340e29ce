// Compiled-vs-interpreted differential suite: every shipped spec is
// solved as the solver always runs it (descvm bytecode) at several
// worker counts, and against an interpreted oracle — the same problem
// with the sides' IR cleared, so the evaluator falls back to
// TraceFn.Apply. The complete observable result — the fingerprint
// BENCH_solver.json tracks, the ordered result slices and every
// deterministic SearchStats counter — must be byte-identical. Together
// with the eqlang corpus fuzz (FuzzCompiledVsInterpreted) this is what
// lets the solver treat the bytecode path as a pure speedup.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
)

func TestCompiledParityAcrossSpecs(t *testing.T) {
	matches, err := filepath.Glob(filepath.Join("specs", "*.eq"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no spec files found")
	}
	sort.Strings(matches)
	for _, path := range matches {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := eqlang.CompileSource(string(src))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spec := filepath.Base(path)
		t.Run(spec, func(t *testing.T) {
			// Shipped specs are written entirely in the lowerable surface
			// language; a spec that silently fell back to the interpreter
			// would turn the rest of this test into a tautology.
			if _, _, ok := prog.Bytecode(); !ok {
				t.Fatal("spec does not lower to bytecode")
			}
			oracle := solver.Enumerate(context.Background(), interpreted(prog.Problem()))
			oracleFp := fingerprint(spec, oracle)
			oracleStats := oracle.Stats.Deterministic()
			if oracle.Stats.CompiledEval {
				t.Fatal("oracle run reports compiled evaluation")
			}

			compiled := prog.Problem()
			check := func(what string, res solver.Result) {
				t.Helper()
				if !res.Stats.CompiledEval {
					t.Errorf("%s: compiled run did not use bytecode", what)
				}
				if got := fingerprint(spec, res); got != oracleFp {
					t.Errorf("%s: fingerprint drifted:\n got %+v\nwant %+v", what, got, oracleFp)
				}
				if got := res.Stats.Deterministic(); !reflect.DeepEqual(got, oracleStats) {
					t.Errorf("%s: SearchStats diverged:\n got %+v\nwant %+v", what, got, oracleStats)
				}
				compareTraceSlices(t, 0, what+" solutions", res.Solutions, oracle.Solutions)
				compareTraceSlices(t, 0, what+" frontier", res.Frontier, oracle.Frontier)
				compareTraceSlices(t, 0, what+" dead leaves", res.DeadLeaves, oracle.DeadLeaves)
				compareTraceSlices(t, 0, what+" visited", res.Visited, oracle.Visited)
			}
			for _, workers := range parityWorkerCounts() {
				res := solver.Enumerate(context.Background(), withWorkers(compiled, workers))
				check("w"+strconv.Itoa(workers), res)
			}
		})
	}
}

// interpreted returns p with both description sides stripped of their
// IR, so the evaluator cannot lower them and interprets TraceFn.Apply —
// the oracle the bytecode path is checked against.
func interpreted(p solver.Problem) solver.Problem {
	p.D.F.IR = nil
	p.D.G.IR = nil
	return p
}
