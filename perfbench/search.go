package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/netgen"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// digest is the part of a solve result the output check compares: the
// node count and the solution, frontier and dead-leaf lists, each as a
// count and an order-sensitive hash of the traces' keys (the lists come
// out in canonical BFS order at every worker count).
type digest struct {
	Nodes                           int
	Solutions, Frontier, Dead       int
	SolHash, FrontierHash, DeadHash uint64
}

func hashTraces(ts []trace.Trace) uint64 {
	h := uint64(14695981039346656037)
	for _, t := range ts {
		h ^= uint64(t.Key())
		h *= 1099511628211
		h ^= uint64(t.Len())
		h *= 1099511628211
	}
	return h
}

func digestOf(r solver.Result) digest {
	return digest{
		Nodes:        r.Nodes,
		Solutions:    len(r.Solutions),
		Frontier:     len(r.Frontier),
		Dead:         len(r.DeadLeaves),
		SolHash:      hashTraces(r.Solutions),
		FrontierHash: hashTraces(r.Frontier),
		DeadHash:     hashTraces(r.DeadLeaves),
	}
}

// counts are the deterministic counters of a single-worker solve. They
// must repeat exactly on every w1 solve of an instance, in every run.
type counts struct {
	Nodes, Edges                       int
	FApplies, GApplies, FHits, GHits   int64
	Pruned, Thm1Auto, EdgesKept, Depth int
}

func countsOf(r solver.Result) counts {
	s := r.Stats
	return counts{
		Nodes: r.Nodes, Edges: s.EdgesChecked, EdgesKept: s.EdgesKept,
		FApplies: s.Eval.FApplies, GApplies: s.Eval.GApplies, FHits: s.Eval.FHits, GHits: s.Eval.GHits,
		Pruned: s.SubtreesPruned, Thm1Auto: s.Thm1AutoEdges, Depth: len(s.Levels),
	}
}

// evalCounts is the evaluator's slice of counts: what a w2 solve is
// compared on to detect the memo divergence above the memo cap.
func (c counts) evalCounts() [4]int64 { return [4]int64{c.FApplies, c.GApplies, c.FHits, c.GHits} }

// stressCase is one drawn instance with its single-worker reference.
type stressCase struct {
	inst    *netgen.StressInstance
	ref     digest
	counts  counts
	refWall time.Duration
	// sample holds solution and frontier traces of the reference, replayed
	// through the evaluators in the traced run.
	sample []trace.Trace
}

// drawStressCfg draws n stress instances from the seed: stress seeds come
// from a seeded generator, and an instance is kept when its planner
// bracket top is at most maxPredicted and its shape is new to the draw.
// Distinct shapes make every run solve the same mix of tree shapes, so
// the runs of different seeds measure the same work.
func drawStressCfg(seed int64, n int, maxPredicted uint64, cfg netgen.StressConfig) ([]*netgen.StressInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	seen := map[string]bool{}
	var out []*netgen.StressInstance
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000 {
			return nil, fmt.Errorf("stress draw: only %d of %d instances under %d predicted nodes", len(out), n, maxPredicted)
		}
		inst, err := netgen.Stress(rng.Int63n(1<<40), cfg)
		if err != nil {
			return nil, err
		}
		if inst.PredictedMax > maxPredicted || seen[inst.Shape] {
			continue
		}
		seen[inst.Shape] = true
		out = append(out, inst)
	}
	return out, nil
}

// newStressCase solves inst once at one worker as the reference the
// timed solves are checked against. The reference itself is checked
// against the planner's bracket.
func newStressCase(ctx context.Context, inst *netgen.StressInstance) (*stressCase, solver.Result, error) {
	t0 := time.Now()
	r := inst.Solve(ctx, 1)
	c := &stressCase{inst: inst, ref: digestOf(r), counts: countsOf(r), refWall: time.Since(t0)}
	if r.Truncated {
		return nil, r, fmt.Errorf("%s: reference solve truncated", inst.Name)
	}
	if err := inBracket(inst, r.Nodes); err != nil {
		return nil, r, err
	}
	c.sample = traceSample(r, 64)
	return c, r, nil
}

func inBracket(inst *netgen.StressInstance, nodes int) error {
	if uint64(nodes) < inst.PredictedMin || uint64(nodes) > inst.PredictedMax {
		return fmt.Errorf("%s (%s): %d nodes outside the planner bracket [%d, %d]",
			inst.Name, inst.Shape, nodes, inst.PredictedMin, inst.PredictedMax)
	}
	return nil
}

// traceSample takes up to n traces spread evenly over the solutions and
// the frontier of r.
func traceSample(r solver.Result, n int) []trace.Trace {
	all := append(append([]trace.Trace(nil), r.Solutions...), r.Frontier...)
	if len(all) <= n {
		return all
	}
	out := make([]trace.Trace, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, all[i*len(all)/n])
	}
	return out
}

// checkStress is the output check of one timed solve.
func checkStress(c *stressCase, workers int, r solver.Result) error {
	if r.Truncated {
		return fmt.Errorf("%s w%d: solve truncated", c.inst.Name, workers)
	}
	if got := digestOf(r); got != c.ref {
		return fmt.Errorf("%s w%d: result %+v differs from the w1 reference %+v", c.inst.Name, workers, got, c.ref)
	}
	if err := inBracket(c.inst, r.Nodes); err != nil {
		return err
	}
	if workers == 1 {
		if got := countsOf(r); got != c.counts {
			return fmt.Errorf("%s w1: deterministic counters %+v did not repeat the reference %+v", c.inst.Name, got, c.counts)
		}
	}
	return nil
}

type searchOut struct {
	nodesPerS [2]float64 // workers 1 and 2
	divergent int        // instances whose w2 evaluator counters differ from w1
}

var searchWorkers = [2]int{1, 2}

// searchLoop is the search-stress closed loop, one solve per step: first
// the single-worker reference of each instance (the output check's
// oracle, which counts as that instance's first w1 sample), then every
// instance at one and two workers, round after round.
type searchLoop struct {
	insts    []*netgen.StressInstance
	cases    []*stressCase
	steps    int
	times    [][2][]float64 // solve wall times in seconds, per instance and worker count
	ran      [][2][]float64 // the same with the hypervisor's stolen share taken out
	lastI    int            // the instance and worker count of the last step
	lastW    int
	diverged []bool
	tr       *tracer
	t        *tally
	log      io.Writer
}

func newSearchLoop(insts []*netgen.StressInstance, tr *tracer, t *tally, log io.Writer) *searchLoop {
	n := len(insts)
	return &searchLoop{insts: insts, times: make([][2][]float64, n), ran: make([][2][]float64, n), diverged: make([]bool, n), tr: tr, t: t, log: log}
}

// step makes the loop's next solve.
func (l *searchLoop) step(ctx context.Context) error {
	k := l.steps
	l.steps++
	if k < len(l.insts) {
		inst := l.insts[k]
		c, ref, err := newStressCase(ctx, inst)
		l.t.check(err)
		if err != nil {
			return err
		}
		l.cases = append(l.cases, c)
		l.times[k][0] = append(l.times[k][0], c.refWall.Seconds())
		l.lastI, l.lastW = k, 0
		fmt.Fprintf(l.log, "w1-counts %s %s: %+v\n", inst.Name, inst.Shape, c.counts)
		if l.tr.on {
			frontEnd(inst.Source, inst.Name, l.tr)
			searchLayers(c, ref, l.tr)
		}
		return nil
	}
	k -= len(l.insts)
	i, wi := (k/len(searchWorkers))%len(l.cases), k%len(searchWorkers)
	c, w := l.cases[i], searchWorkers[wi]
	var r solver.Result
	var mallocs, bytes uint64
	op := fmt.Sprintf("%s/w%d", c.inst.Name, w)
	d := l.tr.timed("netgen.StressInstance.Solve", op, func() {
		if l.tr.on {
			mallocs, bytes = allocDelta(func() { r = c.inst.Solve(ctx, w) })
		} else {
			r = c.inst.Solve(ctx, w)
		}
	})
	l.t.check(checkStress(c, w, r))
	l.times[i][wi] = append(l.times[i][wi], d.Seconds())
	l.lastI, l.lastW = i, wi
	if w > 1 && countsOf(r).evalCounts() != c.counts.evalCounts() {
		l.diverged[i] = true
	}
	if l.tr.on && r.Nodes > 0 {
		n := float64(r.Nodes)
		l.tr.sample(fmt.Sprintf("solver.ns_per_node_w%d", w), float64(d.Nanoseconds())/n)
		if w == 1 {
			l.tr.sample("solver.allocs_per_node", float64(mallocs)/n)
			l.tr.sample("solver.bytes_per_node", float64(bytes)/n)
		} else {
			l.tr.sample("solver.steals", float64(r.Stats.Steals))
			l.tr.sample("solver.idle_waits", float64(r.Stats.IdleWaits))
			l.tr.sample("desc.inflight_waits", float64(r.Stats.Eval.InflightWaits))
		}
	}
	return nil
}

// enough reports whether every (instance, workers) pair has been solved.
func (l *searchLoop) enough() bool {
	return l.steps >= len(l.insts)*(1+len(searchWorkers))
}

// settle records the last solve's time with the share keep of it in
// which the CPUs ran.
func (l *searchLoop) settle(keep float64) {
	i, w := l.lastI, l.lastW
	t := l.times[i][w]
	l.ran[i][w] = append(l.ran[i][w], t[len(t)-1]*keep)
}

// result is the throughput per worker count from times (l.times or
// l.ran): the draw's total nodes over the sum of each instance's median
// solve time, so a run that stops mid-round does not shift the mix of
// shapes.
func (l *searchLoop) result(times [][2][]float64) searchOut {
	var out searchOut
	for wi := range searchWorkers {
		nodes, secs := 0.0, 0.0
		for i, c := range l.cases {
			nodes += float64(c.ref.Nodes)
			secs += median(times[i][wi])
		}
		out.nodesPerS[wi] = nodes / secs
	}
	for _, d := range l.diverged {
		if d {
			out.divergent++
		}
	}
	return out
}

// searchLayers records the per-layer figures of one drawn instance that
// come from its reference solve rather than the timed loop: edge fates,
// memo traffic, the planner's error, and the evaluator replay.
func searchLayers(c *stressCase, ref solver.Result, tr *tracer) {
	s := ref.Stats
	n := float64(ref.Nodes)
	edges := float64(s.EdgesChecked)
	tr.sample("solver.edges_per_node", edges/n)
	tr.sample("solver.prune_share", float64(s.SubtreesPruned)/math.Max(edges, 1))
	tr.sample("solver.thm1_auto_share", float64(s.Thm1AutoEdges)/math.Max(edges, 1))
	hits := float64(s.Eval.FHits + s.Eval.GHits)
	applies := float64(s.Eval.FApplies + s.Eval.GApplies)
	tr.sample("desc.memo_hit_ratio", hits/math.Max(hits+applies, 1))
	tr.sample("desc.applies_per_node", applies/n)
	geo := math.Sqrt(float64(c.inst.PredictedMin) * float64(c.inst.PredictedMax))
	tr.sample("specplan.log2_err", math.Log2(n/geo))

	evalNs, applyNs := evalReplay(c, tr)
	tr.sample("descvm.eval_ns", evalNs)
	tr.sample("fn.apply_ns", applyNs)
	tr.sample("descvm.speedup_vs_interp", applyNs/evalNs)
	tr.sample("desc.eval_share_est", evalNs*applies/float64(c.refWall.Nanoseconds()))
}

// evalReplay times the instance's description sides on the reference's
// sample traces, once through the compiled bytecode (descvm.Compile then
// Prog.Eval) and once through the interpreter (TraceFn.Apply). Each is
// repeated until it has run for at least 20 ms; the result is ns per
// side application.
func evalReplay(c *stressCase, tr *tracer) (evalNs, applyNs float64) {
	d := c.inst.Prog.Problem().D
	sides := []fn.TraceFn{d.F, d.G}
	var progs []*descvm.Prog
	tr.timed("descvm.Compile", c.inst.Name, func() {
		for _, f := range sides {
			if p, ok := descvm.Compile(f); ok {
				progs = append(progs, p)
			}
		}
	})
	if len(progs) != len(sides) || len(c.sample) == 0 {
		return math.NaN(), math.NaN()
	}
	evalNs = perCall(len(c.sample)*len(progs), func() {
		for _, p := range progs {
			for _, t := range c.sample {
				p.Eval(t)
			}
		}
	})
	applyNs = perCall(len(c.sample)*len(sides), func() {
		for _, f := range sides {
			for _, t := range c.sample {
				f.Apply(t)
			}
		}
	})
	return evalNs, applyNs
}

// perCall repeats f (which makes calls calls) until 20 ms have passed
// and returns the mean ns per call.
func perCall(calls int, f func()) float64 {
	start := time.Now()
	reps := 0
	for time.Since(start) < 20*time.Millisecond || reps < 3 {
		f()
		reps++
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*calls)
}
