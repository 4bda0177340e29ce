package solver

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/value"
)

func TestParallelMatchesSequential(t *testing.T) {
	problems := map[string]Problem{
		"dfm-4": dfmProblem(4),
		"dfm-6": dfmProblem(6),
		"ticks": NewProblem(
			desc.MustNew("ticks", fn.ChanFn("b"), fn.OnChan(fn.PrependFn(value.T), "b")),
			map[string][]value.Value{"b": {value.T, value.F}}, 6),
	}
	for name, p := range problems {
		p := p
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s-w%d", name, workers), func(t *testing.T) {
				seq := Enumerate(context.Background(), p)
				par := Enumerate(context.Background(), withWorkers(p, workers))
				if par.Nodes != seq.Nodes {
					t.Errorf("nodes: parallel %d vs sequential %d", par.Nodes, seq.Nodes)
				}
				a := strings.Join(seq.SolutionKeys(), "|")
				b := strings.Join(par.SolutionKeys(), "|")
				if a != b {
					t.Errorf("solutions differ:\nseq: %s\npar: %s", a, b)
				}
				if len(par.Frontier) != len(seq.Frontier) {
					t.Errorf("frontier: %d vs %d", len(par.Frontier), len(seq.Frontier))
				}
				if len(par.DeadLeaves) != len(seq.DeadLeaves) {
					t.Errorf("dead leaves: %d vs %d", len(par.DeadLeaves), len(seq.DeadLeaves))
				}
			})
		}
	}
}

func TestParallelIsDeterministic(t *testing.T) {
	p := dfmProblem(5)
	a := Enumerate(context.Background(), withWorkers(p, 4))
	b := Enumerate(context.Background(), withWorkers(p, 4))
	if strings.Join(a.SolutionKeys(), "|") != strings.Join(b.SolutionKeys(), "|") {
		t.Error("parallel runs disagree")
	}
	// And the canonical commit order makes Visited deterministic too.
	for i := range a.Visited {
		if !a.Visited[i].Equal(b.Visited[i]) {
			t.Fatalf("visited order differs at %d", i)
		}
	}
}

func TestParallelUnprunedAblation(t *testing.T) {
	p := dfmProblem(4)
	p.Prune = false
	seq := Enumerate(context.Background(), p)
	par := Enumerate(context.Background(), withWorkers(p, 4))
	if strings.Join(seq.SolutionKeys(), "|") != strings.Join(par.SolutionKeys(), "|") {
		t.Error("unpruned parallel disagrees with sequential")
	}
}

func TestParallelNodeBudget(t *testing.T) {
	p := dfmProblem(6)
	p.MaxNodes = 5
	res := Enumerate(context.Background(), withWorkers(p, 4))
	if !res.Truncated {
		t.Error("budget not enforced")
	}
}

func BenchmarkEnumerateWorkers(b *testing.B) {
	p := dfmProblem(8)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Enumerate(context.Background(), withWorkers(p, workers))
			}
		})
	}
}
