// Worker-count parity suite: every shipped spec is solved at one worker
// and at several worker counts, and the complete observable result —
// the fingerprint BENCH_solver.json tracks, the ordered result slices,
// and every deterministic SearchStats counter — must be byte-identical.
// This is the contract the work-stealing search advertises
// (deterministic observable behaviour regardless of scheduling, the
// property Kahn networks are built on) checked against the whole spec
// corpus rather than hand-picked problems. It lives at the repo root because eqlang
// imports the solver, so the solver's own tests cannot compile specs.
package smoothproc_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// parityWorkerCounts: the degenerate pool, the smallest real pool, an
// odd count that never divides the level widths evenly, and whatever
// the host really has.
func parityWorkerCounts() []int {
	return []int{1, 2, 7, runtime.GOMAXPROCS(0)}
}

// withWorkers returns p set to search with the given number of workers.
func withWorkers(p solver.Problem, workers int) solver.Problem {
	p.Workers = workers
	return p
}

func TestParallelParityAcrossSpecs(t *testing.T) {
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
			p := prog.Problem()
			seq := solver.Enumerate(context.Background(), p)
			seqFp := fingerprint(spec, seq)
			seqStats := seq.Stats.Deterministic()
			for _, workers := range parityWorkerCounts() {
				par := solver.Enumerate(context.Background(), withWorkers(p, workers))
				if got := fingerprint(spec, par); got != seqFp {
					t.Errorf("w%d: fingerprint drifted:\n got %+v\nwant %+v", workers, got, seqFp)
				}
				// The fingerprint covers the headline counters; the full
				// normalized stats cover everything else — roles, per-level
				// histograms, eval counters, fast-path flags.
				if got := par.Stats.Deterministic(); !reflect.DeepEqual(got, seqStats) {
					t.Errorf("w%d: SearchStats diverged:\n got %+v\nwant %+v", workers, got, seqStats)
				}
				compareTraceSlices(t, workers, "solutions", par.Solutions, seq.Solutions)
				compareTraceSlices(t, workers, "frontier", par.Frontier, seq.Frontier)
				compareTraceSlices(t, workers, "dead leaves", par.DeadLeaves, seq.DeadLeaves)
				compareTraceSlices(t, workers, "visited", par.Visited, seq.Visited)
				if err := par.Stats.CheckInvariants(par.Truncated); err != nil {
					t.Errorf("w%d: %v", workers, err)
				}
			}
		})
	}
}

func compareTraceSlices(t *testing.T, workers int, what string, got, want []trace.Trace) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("w%d: %s: %d entries, want %d", workers, what, len(got), len(want))
		return
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("w%d: %s[%d] = %s, want %s", workers, what, i, got[i], want[i])
			return
		}
	}
}
