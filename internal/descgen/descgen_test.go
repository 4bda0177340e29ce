package descgen

import (
	"context"
	"strings"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
)

const sweepSeeds = 100

// TestLemma2OnRandomDescriptions checks Lemma 2 — every finite prefix v
// of a smooth solution satisfies f(v) ⊑ g(v) — across the enumerated
// solutions of random descriptions.
func TestLemma2OnRandomDescriptions(t *testing.T) {
	for seed := int64(0); seed < sweepSeeds; seed++ {
		g := Generate(seed, Config{})
		g.Problem.MaxNodes = 20000
		res := solver.Enumerate(context.Background(), g.Problem)
		if res.Truncated {
			continue // too wide for exhaustive treatment; other seeds cover
		}
		for _, s := range res.Solutions {
			if err := g.D.CheckLemma2(s); err != nil {
				t.Errorf("seed %d (%s): %v", seed, g.Shape, err)
			}
		}
	}
}

// TestTheorem1OnRandomIndependents compares the full smoothness check
// with Theorem 1's prefix condition on every random description whose
// generated sides happen to be independent.
func TestTheorem1OnRandomIndependents(t *testing.T) {
	independents := 0
	for seed := int64(0); seed < sweepSeeds*2; seed++ {
		g := Generate(seed, Config{})
		if !g.D.Independent() {
			continue
		}
		independents++
		for tseed := int64(0); tseed < 8; tseed++ {
			tr := g.RandomTrace(tseed, 4)
			full := g.D.IsSmoothFinite(tr) == nil
			thm1 := g.D.IsSmoothFiniteThm1(tr) == nil
			if full != thm1 {
				t.Errorf("seed %d (%s): Theorem 1 disagreement on %s: full=%v thm1=%v",
					seed, g.Shape, tr, full, thm1)
			}
		}
	}
	if independents < 10 {
		t.Errorf("only %d independent descriptions generated — generator too narrow", independents)
	}
}

// TestMonitorOnRandomDescriptions cross-checks the incremental monitor
// against the batch edge sweep on random traces.
func TestMonitorOnRandomDescriptions(t *testing.T) {
	for seed := int64(0); seed < sweepSeeds; seed++ {
		g := Generate(seed, Config{})
		for tseed := int64(0); tseed < 6; tseed++ {
			tr := g.RandomTrace(tseed, 5)
			m := desc.NewMonitor(g.D)
			stepErr := m.StepAll(tr)
			batchOK := solver.IsTreeNode(g.D, tr)
			if (stepErr == nil) != batchOK {
				t.Errorf("seed %d (%s): monitor=%v batch=%v on %s",
					seed, g.Shape, stepErr, batchOK, tr)
			}
			if stepErr == nil && m.Quiescent() != (g.D.IsSmoothFinite(tr) == nil) {
				t.Errorf("seed %d (%s): quiescence disagreement on %s", seed, g.Shape, tr)
			}
		}
	}
}

// TestParallelSolverOnRandomDescriptions compares the 1-worker and
// 4-worker enumerations on random instances.
func TestParallelSolverOnRandomDescriptions(t *testing.T) {
	for seed := int64(0); seed < sweepSeeds/2; seed++ {
		g := Generate(seed, Config{Depth: 3})
		g.Problem.MaxNodes = 20000
		a := solver.Enumerate(context.Background(), g.Problem)
		if a.Truncated {
			continue
		}
		p := g.Problem
		p.Workers = 4
		b := solver.Enumerate(context.Background(), p)
		if strings.Join(a.SolutionKeys(), "|") != strings.Join(b.SolutionKeys(), "|") {
			t.Errorf("seed %d (%s): 1-worker and 4-worker searches disagree", seed, g.Shape)
		}
		if a.Nodes != b.Nodes {
			t.Errorf("seed %d (%s): node counts %d vs %d", seed, g.Shape, a.Nodes, b.Nodes)
		}
	}
}

// TestSamplerSoundOnRandomDescriptions: everything the random-walk
// sampler returns must be a genuine smooth solution.
func TestSamplerSoundOnRandomDescriptions(t *testing.T) {
	for seed := int64(0); seed < sweepSeeds; seed++ {
		g := Generate(seed, Config{})
		s := solver.Sample(context.Background(), g.Problem, solver.SampleOpts{Seed: seed, Walks: 8})
		for _, tr := range s.Solutions {
			if err := g.D.IsSmoothFinite(tr); err != nil {
				t.Errorf("seed %d (%s): sampled non-solution %s: %v", seed, g.Shape, tr, err)
			}
		}
	}
}

// TestGeneratorDeterminismAndVariety sanity-checks the generator itself.
func TestGeneratorDeterminismAndVariety(t *testing.T) {
	if Generate(5, Config{}).Shape != Generate(5, Config{}).Shape {
		t.Error("generator not deterministic")
	}
	shapes := map[string]bool{}
	for seed := int64(0); seed < 40; seed++ {
		shapes[Generate(seed, Config{}).Shape] = true
	}
	if len(shapes) < 30 {
		t.Errorf("only %d distinct shapes in 40 seeds", len(shapes))
	}
}
