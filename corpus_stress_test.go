// Corpus stress suite: one calibrated ≥1e5-node generated instance run
// end to end through the subsystems large searches exercise — the
// parallel solver at several worker counts, held to the one-worker
// fingerprint, and a solve session captured shallow then resumed to full
// depth, held to a cold capture's fingerprint. This is the -short-gated leg of the CI
// corpus job; the per-PR leg cross-checks the small families instead
// (see internal/netgen and `smoothsolve corpus`).
package smoothproc_test

import (
	"context"
	"testing"

	"smoothproc/internal/netgen"
	"smoothproc/internal/session"
	"smoothproc/internal/solver"
)

func TestCorpusStressEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus stress is the scheduled CI leg")
	}
	ctx := context.Background()
	// Seed 3 is the calibrated twin-buffer instance (~156k nodes) the
	// netgen and service stress tests also pin. Seed 35799023589 draws a
	// 368k-node instance, with more f applications than any bounded memo
	// of 2^18 entries per side could hold: its fingerprints must agree
	// across worker counts all the same.
	for _, seed := range []int64{3, 35799023589} {
		s, err := netgen.Stress(seed, netgen.StressConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cold := s.Solve(ctx, 1)
		if cold.Nodes < 100_000 {
			t.Fatalf("%s (%s): %d nodes, want >= 1e5", s.Name, s.Shape, cold.Nodes)
		}
		if uint64(cold.Nodes) < s.PredictedMin || uint64(cold.Nodes) > s.PredictedMax {
			t.Errorf("%s: %d nodes outside planner bracket [%d, %d]",
				s.Name, cold.Nodes, s.PredictedMin, s.PredictedMax)
		}
		for _, w := range []int{2, 4} {
			if got := s.Solve(ctx, w).Fingerprint(); got != cold.Fingerprint() {
				t.Errorf("%s: %d-worker fingerprint %x differs from the 1-worker %x", s.Name, w, got, cold.Fingerprint())
			}
		}
		if seed == 3 {
			sessionLeg(t, s)
		}
	}
}

// sessionLeg captures s at half depth in a session, then deepens to full.
// The resumed result must match a cold capture at full depth exactly —
// resuming a stress-sized search is a pure work split, never a different
// search. (A session leg is a capture: it expands depth-bound nodes in
// full for the next leg, so its bound-level edge counters are a cold
// capture's, not a plain solve's.)
func sessionLeg(t *testing.T, s *netgen.StressInstance) {
	ctx := context.Background()
	p := s.Prog.Problem()
	sess := session.New(s.Name, p, s.Prog.System)
	if _, outcome, err := sess.Solve(ctx, session.Options{Depth: s.Depth / 2, Workers: 4}); err != nil {
		t.Fatal(err)
	} else if outcome != session.Cold {
		t.Fatalf("first session leg: outcome %v, want cold", outcome)
	}
	res, outcome, err := sess.Solve(ctx, session.Options{Depth: s.Depth, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != session.Resumed {
		t.Fatalf("deepening leg: outcome %v, want resumed", outcome)
	}
	p.MaxDepth = s.Depth
	p.CollectVisited = false
	cold, _ := solver.EnumerateCapture(ctx, p)
	if res.Fingerprint() != cold.Fingerprint() {
		t.Errorf("resumed session fingerprint %x differs from the cold capture's %x (%d nodes / %d solutions vs %d / %d)",
			res.Fingerprint(), cold.Fingerprint(), res.Nodes, len(res.Solutions), cold.Nodes, len(cold.Solutions))
	}
}
