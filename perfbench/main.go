// Command perfbench is the repository's benchmark: three seeded
// workloads over the paper's §3.3 smooth-solution search, measured end
// to end with tracing off and per layer in a separate traced run.
//
//	bash perfbench/run.sh --workload search-stress --seed 1 --seconds 30 --trace 0
//
// Workloads (see README.md and BENCHMARK.json for the reasoning):
//
//   - search-stress: closed-loop library solves of stress buffer farms at
//     one and two workers (netgen.StressInstance.Solve).
//   - serve-corpus: an open loop of solve-by-hash requests against an
//     in-process smoothd (service.New(...).Handler() on loopback HTTP).
//   - session-durable: one client deepening /v1/sessions legs against
//     smoothd with a disk store, restarting the daemon between legs.
//
// Every run reports every end-to-end metric: the named workload's own
// path gets most of the run, and the other two paths run as fixed-share
// probes. The last line of stdout is the JSON result.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"smoothproc/internal/netgen"
)

// metricDef names one reported metric. The tables below are the source
// of BENCHMARK.json's metric lists; a self-test holds the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"search_w1_nodes_per_s", "nodes/s", "higher"},
	{"serve_p50_ms", "ms", "lower"},
	{"serve_search_p50_ms", "ms", "lower"},
	{"session_restore_p50_ms", "ms", "lower"},
	{"session_nodes_per_s", "nodes/s", "higher"},
}

var perLayer = []metricDef{
	{"failed_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"solver.ns_per_node_w1", "ns", "lower"},
	{"solver.ns_per_node_w2", "ns", "lower"},
	{"search_w2_nodes_per_s", "nodes/s", "higher"},
	{"solver.w2_over_w1", "x", "higher"},
	{"solver.allocs_per_node", "count", "lower"},
	{"solver.bytes_per_node", "B", "lower"},
	{"solver.edges_per_node", "count", "lower"},
	{"solver.prune_share", "share", "higher"},
	{"solver.thm1_auto_share", "share", "higher"},
	{"solver.steals", "count", "lower"},
	{"solver.idle_waits", "count", "lower"},
	{"desc.memo_hit_ratio", "share", "higher"},
	{"desc.applies_per_node", "count", "lower"},
	{"desc.inflight_waits", "count", "lower"},
	{"desc.eval_share_est", "share", "lower"},
	{"desc.memo_divergence", "count", "lower"},
	{"descvm.eval_ns", "ns", "lower"},
	{"fn.apply_ns", "ns", "lower"},
	{"descvm.speedup_vs_interp", "x", "higher"},
	{"specplan.analyze_us", "us", "lower"},
	{"specplan.bracket_misses", "count", "lower"},
	{"specplan.log2_err", "log2", "lower"},
	{"eqlang.compile_us", "us", "lower"},
	{"specvet.vet_us", "us", "lower"},
	{"service.admit_ms", "ms", "lower"},
	{"service.queue_ms", "ms", "lower"},
	{"service.run_ms", "ms", "lower"},
	{"service.unattributed_ms", "ms", "lower"},
	{"service.result_cache_hit_ratio", "share", "higher"},
	{"service.spec_cache_hit_ratio", "share", "higher"},
	{"service.shed_503", "count", "lower"},
	{"service.quota_429", "count", "lower"},
	{"service.loadgen_lag_ms", "ms", "lower"},
	{"service.cache_reconcile_gap", "count", "lower"},
	{"host.steal_share", "share", "lower"},
	{"serve_p99_ms", "ms", "lower"},
	{"serve_goodput_rps", "1/s", "higher"},
	{"session_leg_p50_ms", "ms", "lower"},
	{"session_leg_p90_ms", "ms", "lower"},
	{"session.resume_ms", "ms", "lower"},
	{"session.encode_ms", "ms", "lower"},
	{"session.decode_ms", "ms", "lower"},
	{"session.frontier", "count", "lower"},
	{"solver.checkpoint_bytes", "B", "lower"},
	{"solver.checkpoint_encode_mb_per_s", "MB/s", "higher"},
	{"solver.checkpoint_decode_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.put_bytes", "B", "lower"},
	{"store.errors", "count", "lower"},
}

// counterMetrics are per-layer metrics accumulated as totals; every
// other per-layer metric is the median of its samples.
var counterMetrics = map[string]bool{
	"specplan.bracket_misses": true, "service.shed_503": true, "service.quota_429": true,
	"service.cache_reconcile_gap": true, "store.errors": true, "desc.memo_divergence": true,
}

var workloads = []string{"search-stress", "serve-corpus", "session-durable"}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.BoolVar(&o.short, "short", false, "tiny inputs and budgets, for the benchmark's self-tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if !slices.Contains(workloads, o.workload) || fs.NArg() != 0 || o.seconds <= 0 {
		fmt.Fprintf(stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	st := machineStamp(root)
	stampJSON, _ := json.Marshal(st)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON)

	tr := newTracer(o.trace)
	got, t, err := runWorkload(context.Background(), o, root, tr, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if o.trace {
		want = perLayer
		path := filepath.Join(root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := tr.writeSpans(path); err != nil {
			fmt.Fprintln(stderr, "perfbench: write spans:", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	names := make([]string, len(want))
	for i, m := range want {
		names[i] = m.Name
	}
	if miss := got.missing(names); len(miss) > 0 {
		fmt.Fprintf(stderr, "perfbench: no measurement for %v\n", miss)
		return 1
	}
	for _, r := range t.reasons {
		fmt.Fprintln(stderr, "check failed:", r)
	}
	fmt.Fprintf(stdout, "%s (seed %d, %s, %d of %d operations failed their output check)\n%s",
		o.workload, o.seed, map[bool]string{false: "untraced", true: "traced"}[o.trace], t.failed, t.attempted, got)
	result := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, map[string]metric{}}
	for _, n := range names {
		result.Metrics[n] = got.values[n]
	}
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// The named workload's own path gets focusShare of the run; the two
// other paths share the rest in proportion to their probe weights. The
// serve and session probes weigh more than the search probe: the
// latency medians need many requests and whole cycles of session
// episodes, while the search probe's median settles after a few solves.
// A traced run gives 1-serveFixedShare of the serve time to the ladder.
const (
	focusShare      = 0.5
	serveFixedShare = 0.6
	// The fixed-rate phase runs in serveChunks chunks of at least
	// minServeChunk each.
	serveChunks   = 8
	minServeChunk = 500 * time.Millisecond
)

var probeWeights = map[string]float64{"search-stress": 2, "serve-corpus": 3, "session-durable": 3}

// scale sizes the inputs of one run: full size, or tiny for self-tests.
type scale struct {
	stressTarget   uint64 // netgen.StressConfig.TargetNodes
	searchN        int    // instances in the search-stress draw
	searchMaxNodes uint64 // bracket-top cap of the search-stress draw
	probeMaxNodes  uint64 // bracket-top cap of the search probe's instance
	corpusSize     int
	setupRepeats   int
}

func scaleFor(o options) scale {
	if o.short {
		return scale{stressTarget: 2000, searchN: 2, searchMaxNodes: 20000, probeMaxNodes: 20000, corpusSize: 12, setupRepeats: 2}
	}
	return scale{searchN: 3, searchMaxNodes: 500_000, probeMaxNodes: 300_000, corpusSize: serveCorpusSize, setupRepeats: 3}
}

// runState is one workload run, shared by its three paths.
type runState struct {
	o     options
	sc    scale
	root  string
	tr    *tracer
	log   io.Writer
	t     tally
	setup float64 // summed set-up medians of the paths
	m     *metricSet
	// closers release what the paths hold (daemons, data directories).
	closers []func()

	searchSeed, serveSeed, sessionSeed, loadSeed int64
	stressCfg                                    netgen.StressConfig
}

// share is the part of the run's --seconds that path gets.
func (r *runState) share(path string) time.Duration {
	total := time.Duration(r.o.seconds * float64(time.Second))
	if r.o.workload == path {
		return time.Duration(focusShare * float64(total))
	}
	probes := 0.0
	for w, weight := range probeWeights {
		if w != r.o.workload {
			probes += weight
		}
	}
	return time.Duration((1 - focusShare) * probeWeights[path] / probes * float64(total))
}

// pathRun is one of a run's three paths, driven one step at a time: a
// search solve, a serve chunk or a session episode.
type pathRun struct {
	name   string
	budget time.Duration
	used   time.Duration
	steps  int
	ticks  cpuTicks // the machine's CPU ticks over the path's steps
	step   func(context.Context) error
	settle func(keep float64)          // keep: the share of the last step in which the CPUs ran
	enough func() bool                 // the path's minimum work is done
	finish func(context.Context) error // sets the path's metrics
}

func (p *pathRun) progress() float64 { return p.used.Seconds() / p.budget.Seconds() }

// interleave runs the paths' steps, each time stepping the path that has
// spent the smallest part of its budget, until every path has spent its
// budget and done its minimum work. Every path thus samples the whole
// run rather than one slice of it, so a spell in which the shared host
// runs slow weighs on every metric alike instead of on whichever path
// ran during it. The heap is collected before every step, so no step
// pays for an earlier step's garbage, and each solve grows its heap from
// the same start.
func interleave(ctx context.Context, paths []*pathRun) error {
	for {
		var next *pathRun
		for _, p := range paths {
			if p.used >= p.budget && p.enough() {
				continue
			}
			if next == nil || p.progress() < next.progress() {
				next = p
			}
		}
		if next == nil {
			return nil
		}
		runtime.GC()
		began, ticks := time.Now(), readTicks()
		if err := next.step(ctx); err != nil {
			return err
		}
		next.used += time.Since(began)
		next.steps++
		stepTicks := readTicks().sub(ticks)
		next.ticks = next.ticks.add(stepTicks)
		next.settle(1 - stepTicks.stolen())
	}
}

// runWorkload sets up the three paths of one workload run, interleaves
// their steps and assembles the metrics: end to end when untraced, per
// layer when traced.
func runWorkload(ctx context.Context, o options, root string, tr *tracer, log io.Writer) (*metricSet, tally, error) {
	r := &runState{o: o, sc: scaleFor(o), root: root, tr: tr, log: log, m: newMetricSet()}
	defer func() {
		for _, c := range r.closers {
			c()
		}
	}()
	// Each path draws from its own stream of the run's seed.
	seeds := rand.New(rand.NewSource(o.seed))
	r.searchSeed, r.serveSeed, r.sessionSeed, r.loadSeed = seeds.Int63(), seeds.Int63(), seeds.Int63(), seeds.Int63()
	r.stressCfg = netgen.StressConfig{TargetNodes: r.sc.stressTarget}
	var paths []*pathRun
	for _, setup := range []func(context.Context) (*pathRun, error){r.servePath, r.sessionPath, r.searchPath} {
		p, err := setup(ctx)
		if err != nil {
			return nil, r.t, err
		}
		paths = append(paths, p)
	}
	if err := interleave(ctx, paths); err != nil {
		return nil, r.t, err
	}
	var all cpuTicks
	for _, p := range paths {
		if err := p.finish(ctx); err != nil {
			return nil, r.t, err
		}
		fmt.Fprintf(log, "%s: %d steps in %.1f s, %.1f%% of busy CPU ticks stolen\n", p.name, p.steps, p.used.Seconds(), 100*p.ticks.stolen())
		all = all.add(p.ticks)
	}
	tr.sample("host.steal_share", all.stolen())
	r.m.set("setup_s", r.setup, "s")
	r.m.set("peak_rss_mb", peakRSSMB(), "MB")
	if !tr.on {
		return r.m, r.t, nil
	}
	pl := newMetricSet()
	pl.set("failed_share", float64(r.t.failed)/math.Max(float64(r.t.attempted), 1), "share")
	for _, d := range perLayer {
		if d.Name == "failed_share" {
			continue
		}
		if counterMetrics[d.Name] {
			pl.set(d.Name, tr.counter(d.Name), d.Unit)
		} else {
			pl.set(d.Name, median(tr.series(d.Name)), d.Unit)
		}
	}
	return pl, r.t, nil
}

// searchPath sets up search-stress's path. The stress draw is its
// set-up; the w1 references are the output check's oracle and count as
// the first w1 samples, not as set-up.
func (r *runState) searchPath(ctx context.Context) (*pathRun, error) {
	n, maxNodes := 1, r.sc.probeMaxNodes
	if r.o.workload == "search-stress" {
		n, maxNodes = r.sc.searchN, r.sc.searchMaxNodes
	}
	var insts []*netgen.StressInstance
	setup := repeatMedian(r.sc.setupRepeats, func() error {
		var err error
		insts, err = drawStressCfg(r.searchSeed, n, maxNodes, r.stressCfg)
		return err
	})
	if math.IsNaN(setup) {
		return nil, fmt.Errorf("stress draw failed")
	}
	r.setup += setup
	l := newSearchLoop(insts, r.tr, &r.t, r.log)
	p := &pathRun{name: "search", budget: r.share("search-stress"), step: l.step, settle: l.settle, enough: l.enough}
	p.finish = func(ctx context.Context) error {
		so := l.result(l.ran)
		fmt.Fprintf(r.log, "search as measured: search_w1_nodes_per_s %.6g\n", l.result(l.times).nodesPerS[0])
		r.m.set("search_w1_nodes_per_s", so.nodesPerS[0], "nodes/s")
		r.tr.sample("search_w2_nodes_per_s", so.nodesPerS[1])
		r.tr.count("desc.memo_divergence", float64(so.divergent))
		r.tr.sample("solver.w2_over_w1", so.nodesPerS[1]/so.nodesPerS[0])
		if r.tr.on {
			r.tr.sample("trace.overhead_share", traceOverhead(ctx, l.cases[0], r.tr))
		}
		return nil
	}
	return p, nil
}

// servePath sets up serve-corpus's path. Starting the daemon, uploading
// the corpus and warming the result cache is its set-up; the library
// references are the oracle and not timed. The fixed-rate phase runs in
// serveChunks chunks. The rate ladder runs only in the traced run
// (serve_goodput_rps is a per-layer figure), after the interleaved
// steps; the untraced run spends the whole serve share at the fixed
// rate.
func (r *runState) servePath(ctx context.Context) (*pathRun, error) {
	corpus, err := drawCorpus(ctx, r.serveSeed, r.sc.corpusSize, r.tr)
	if err != nil {
		return nil, err
	}
	var env *serveEnv
	r.setup += repeatMedian(r.sc.setupRepeats, func() error {
		if env != nil {
			env.close()
		}
		var err error
		env, err = setupServe(ctx, corpus, r.tr, &r.t)
		return err
	})
	if env == nil {
		return nil, fmt.Errorf("serve set-up failed")
	}
	r.closers = append(r.closers, env.close)
	serveTime := r.share("serve-corpus")
	fixed, step := serveTime, time.Duration(0)
	if r.tr.on {
		fixed = time.Duration(serveFixedShare * float64(serveTime))
		step = time.Duration((1 - serveFixedShare) * float64(serveTime) / serveLadderSteps)
	}
	chunk := max(fixed/serveChunks, minServeChunk)
	l, err := newServeLoop(ctx, env, rand.New(rand.NewSource(r.loadSeed)), chunk, r.tr, &r.t)
	if err != nil {
		return nil, err
	}
	p := &pathRun{name: "serve", budget: fixed, step: l.step, settle: l.settle, enough: l.enough}
	p.finish = func(ctx context.Context) error {
		sv, err := l.finish(ctx, step, r.log)
		if err != nil {
			return err
		}
		fmt.Fprintf(r.log, "serve as measured: serve_p50_ms %.6g serve_search_p50_ms %.6g\n", sv.rawP50, sv.rawSearchP50)
		r.m.set("serve_p50_ms", sv.p50, "ms")
		r.m.set("serve_search_p50_ms", sv.searchP50, "ms")
		r.tr.sample("serve_p99_ms", sv.p99)
		r.tr.sample("serve_goodput_rps", sv.goodput)
		return nil
	}
	return p, nil
}

// sessionPath sets up session-durable's path. Creating the data
// directory and starting the daemon on it is its set-up.
func (r *runState) sessionPath(ctx context.Context) (*pathRun, error) {
	tmp := filepath.Join(r.root, ".bench_build", "tmp")
	var env *sessionEnv
	r.setup += repeatMedian(r.sc.setupRepeats, func() error {
		if env != nil {
			env.close()
		}
		var err error
		env, err = setupSession(tmp, r.tr)
		return err
	})
	if env == nil {
		return nil, fmt.Errorf("session set-up failed")
	}
	r.closers = append(r.closers, env.close)
	l := newSessionLoop(env, newEpisodeDrawer(r.sessionSeed, r.stressCfg), r.tr, &r.t)
	p := &pathRun{name: "session", budget: r.share("session-durable"), step: l.step, settle: l.settle, enough: l.enough}
	p.finish = func(context.Context) error {
		raw, se := l.result(false), l.result(true)
		fmt.Fprintf(r.log, "session as measured: session_leg_p50_ms %.6g session_restore_p50_ms %.6g session_nodes_per_s %.6g\n",
			raw.legP50, raw.restoreP50, raw.nodesPerS)
		r.m.set("session_restore_p50_ms", se.restoreP50, "ms")
		r.m.set("session_nodes_per_s", se.nodesPerS, "nodes/s")
		r.tr.sample("session_leg_p50_ms", se.legP50)
		r.tr.sample("session_leg_p90_ms", se.legP90)
		return nil
	}
	return p, nil
}

// repeatMedian runs a set-up step n times and returns the median of its
// wall times in seconds, each with the share of the machine's busy CPU
// ticks that the hypervisor stole during it taken out (NaN if any
// repetition failed).
func repeatMedian(n int, f func() error) float64 {
	var times []float64
	for i := 0; i < n; i++ {
		start, ticks := time.Now(), readTicks()
		if err := f(); err != nil {
			return math.NaN()
		}
		times = append(times, time.Since(start).Seconds()*(1-readTicks().sub(ticks).stolen()))
	}
	return median(times)
}

// traceOverhead solves one instance at one worker alternately with and
// without the traced run's instrumentation (span plus MemStats reads)
// and returns the traced median over the untraced median, minus one.
func traceOverhead(ctx context.Context, c *stressCase, tr *tracer) float64 {
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		runtime.GC()
		start := time.Now()
		c.inst.Solve(ctx, 1)
		plain = append(plain, time.Since(start).Seconds())
		runtime.GC()
		d := tr.timed("netgen.StressInstance.Solve", c.inst.Name+"/overhead", func() {
			allocDelta(func() { c.inst.Solve(ctx, 1) })
		})
		traced = append(traced, d.Seconds())
	}
	return median(traced)/median(plain) - 1
}
