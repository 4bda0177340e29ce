package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smoothproc/internal/eqlang"
	"smoothproc/internal/netgen"
	"smoothproc/internal/report"
	"smoothproc/internal/service"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
	"smoothproc/internal/specvet"
	"smoothproc/internal/store"
)

// The serve-corpus traffic, recorded as absolute numbers in
// BENCHMARK.json: the offered rate of the fixed-rate phase, the rate
// ladder that finds the goodput, the p99 latency limit, and the share of
// requests that are no_cache searches. The fixed rate keeps the two
// connections mostly idle even when the hypervisor takes half the CPU
// time, so the latencies measure requests rather than a queue that
// grows with the host's load.
const (
	serveFixedRPS   = 60.0
	serveLimitMs    = 100.0
	serveNoCache    = 0.2
	serveCorpusSize = 160 // above the daemon's default 128-entry spec LRU
	// The no_cache class searches specs whose reference tree has between
	// serveSmallMin and serveSmallNodes nodes: real searches stay a
	// minority of the time, and a narrow band keeps the class's cost
	// alike across seeds.
	serveSmallMin   = 100
	serveSmallNodes = 400
	// serveMaxPlanNodes keeps specs whose planner bracket top is at most
	// this many nodes, bounding the warm-up searches.
	serveMaxPlanNodes = 20000
	// solveMaxDepth and solveMaxNodes are the daemon defaults a solve is
	// clamped to; the library reference uses the same bounds.
	solveMaxDepth = 12
	solveMaxNodes = 500000
)

var serveLadderRPS = []float64{400, 800, 1600, 3200}

// serveLadderSteps is how many ladder steps a run budgets for: on a
// 2-core box the ladder passes 400 and 800 and stops at 1600.
const serveLadderSteps = 3

// corpusCase is one served spec with its library reference answer.
type corpusCase struct {
	inst  *netgen.Instance
	hash  string
	ref   []string // sorted solution renderings
	nodes int
	small bool
}

// drawCorpus generates the served corpus from the seed: consecutive
// netgen.Corpus("all", …) positions from a seeded base, keeping specs
// whose planner bracket top is at most serveMaxPlanNodes, and solves
// each through the library for the reference answer. The traced run also
// times the front end (eqlang, specvet, specplan) on every kept spec and
// counts planner bracket misses.
func drawCorpus(ctx context.Context, seed int64, n int, tr *tracer) ([]*corpusCase, error) {
	rng := rand.New(rand.NewSource(seed))
	base := 1 + rng.Int63n(1<<30)
	var out []*corpusCase
	for pos := int64(0); len(out) < n; pos += 32 {
		if pos > int64(64*n) {
			return nil, fmt.Errorf("corpus draw: only %d of %d specs under %d planned nodes", len(out), n, serveMaxPlanNodes)
		}
		insts, err := netgen.Corpus("all", base+pos, 32)
		if err != nil {
			return nil, err
		}
		for _, in := range insts {
			if len(out) == n {
				break
			}
			depth := min(in.Prog.Depth, solveMaxDepth)
			plan := specplan.Analyze(in.Prog.System, in.Prog.Alphabet, depth)
			if plan.Nodes(depth) > serveMaxPlanNodes {
				continue
			}
			c, err := corpusRef(ctx, in, depth)
			if err != nil {
				return nil, err
			}
			if tr.on {
				frontEnd(in.Source, in.Name, tr)
				if uint64(c.nodes) < plan.MinNodes(depth) || uint64(c.nodes) > plan.Nodes(depth) {
					tr.count("specplan.bracket_misses", 1)
				}
			}
			out = append(out, c)
		}
	}
	return out, nil
}

// corpusRef solves one spec through the library at the bounds the daemon
// applies to a default solve.
func corpusRef(ctx context.Context, in *netgen.Instance, depth int) (*corpusCase, error) {
	p := in.Prog.Problem()
	p.MaxDepth = depth
	p.MaxNodes = solveMaxNodes
	p.CollectVisited = false
	r := solver.Enumerate(ctx, p)
	if r.Truncated {
		return nil, fmt.Errorf("%s: reference solve truncated", in.Name)
	}
	ref := r.SolutionKeys()
	sort.Strings(ref)
	return &corpusCase{inst: in, ref: ref, nodes: r.Nodes, small: r.Nodes >= serveSmallMin && r.Nodes <= serveSmallNodes}, nil
}

// frontEnd times the static front end on one source: eqlang compile,
// specvet's full vet, and the planner.
func frontEnd(src, name string, tr *tracer) {
	var prog *eqlang.Program
	d := tr.timed("eqlang.CompileSource", name, func() { prog, _ = eqlang.CompileSource(src) })
	tr.sample("eqlang.compile_us", float64(d.Nanoseconds())/1e3)
	d = tr.timed("specvet.Vet", name, func() { specvet.Vet(src) })
	tr.sample("specvet.vet_us", float64(d.Nanoseconds())/1e3)
	if prog == nil {
		return
	}
	depth := min(prog.Depth, solveMaxDepth)
	d = tr.timed("specplan.Analyze", name, func() { specplan.Analyze(prog.System, prog.Alphabet, depth) })
	tr.sample("specplan.analyze_us", float64(d.Nanoseconds())/1e3)
}

// checkAnswer is the serve output check: the response's solution set
// must equal the library reference.
func checkAnswer(c *corpusCase, res *service.SolveResult) error {
	if res == nil {
		return fmt.Errorf("%s: response without a result", c.inst.Name)
	}
	if res.Truncated || res.Canceled {
		return fmt.Errorf("%s: truncated answer", c.inst.Name)
	}
	got := append([]string(nil), res.Solutions...)
	sort.Strings(got)
	if !slices.Equal(got, c.ref) {
		return fmt.Errorf("%s: %d solutions served, library reference has %d (sets differ)", c.inst.Name, len(got), len(c.ref))
	}
	return nil
}

// serveEnv is a started server with the corpus uploaded and every
// (spec, default params) pair answered once, so repeats hit the result
// cache.
type serveEnv struct {
	srv   *server
	cl    *client
	cases []*corpusCase
	small [][]*corpusCase // the no_cache specs, grouped by family
}

// appendByFamily adds c to the group of its family, in first-seen order.
func appendByFamily(groups [][]*corpusCase, c *corpusCase) [][]*corpusCase {
	for i, g := range groups {
		if g[0].inst.Family == c.inst.Family {
			groups[i] = append(g, c)
			return groups
		}
	}
	return append(groups, []*corpusCase{c})
}

// serviceConfig is the daemon-default config, plus in the traced run a
// timing wrapper around the store backend. layer selects whether its
// calls feed the store.* samples: the session path's disk store does,
// the serve path's memory store is recorded as spans only.
func serviceConfig(tr *tracer, layer bool, backend func() (store.Store, error)) (service.Config, error) {
	if !tr.on {
		return service.Config{}, nil // daemon defaults: in-memory store
	}
	st, err := backend()
	if err != nil {
		return service.Config{}, err
	}
	return service.Config{Store: &timingStore{inner: st, tr: tr, layer: layer}}, nil
}

// setupServe starts the daemon, uploads every spec and warms the result
// cache. The upload and warm-up answers are checked like timed ones.
func setupServe(ctx context.Context, cases []*corpusCase, tr *tracer, t *tally) (*serveEnv, error) {
	cfg, err := serviceConfig(tr, false, func() (store.Store, error) { return store.NewMemory(), nil })
	if err != nil {
		return nil, err
	}
	srv, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	env := &serveEnv{srv: srv, cl: newClient(), cases: cases}
	for _, c := range cases {
		var info service.SpecInfo
		if _, err := env.cl.post(ctx, srv.base+"/v1/specs", service.SpecRequest{Source: c.inst.Source}, nil, &info); err != nil {
			env.close()
			return nil, err
		}
		c.hash = info.Hash
		var view service.JobView
		_, err := env.cl.post(ctx, srv.base+"/v1/solve", service.SolveRequest{SpecHash: c.hash, Wait: true}, nil, &view)
		if err == nil {
			err = checkAnswer(c, view.Result)
		}
		t.check(err)
		if c.small {
			env.small = appendByFamily(env.small, c)
		}
	}
	if len(env.small) == 0 {
		env.close()
		return nil, fmt.Errorf("corpus has no spec of %d to %d reference nodes for the no_cache class", serveSmallMin, serveSmallNodes)
	}
	return env, nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.cl.close()
	_ = e.srv.stop(ctx)
}

// request is one scheduled open-loop request.
type request struct {
	due     time.Duration // from the phase start
	c       *corpusCase
	noCache bool
}

// outcome is one request's fate. Latency runs from the due time, so it
// includes any wait for a free connection; lag is how late the generator
// picked the request up.
type outcome struct {
	req     request
	lag     time.Duration
	latency time.Duration
	client  time.Duration // send to response
	err     error
	status  int
	cached  bool
	spans   []service.SpanView
	traced  bool
}

// schedule draws Poisson arrivals at rate for dur: independent users.
// A no_cache request picks a family of small specs uniformly, then a
// spec of that family uniformly, so the class's mix of families does not
// depend on how many specs of each family the seed drew.
func schedule(rng *rand.Rand, rate float64, dur time.Duration, all []*corpusCase, small [][]*corpusCase) []request {
	var out []request
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		if at >= dur.Seconds() {
			return out
		}
		r := request{due: time.Duration(at * float64(time.Second))}
		if rng.Float64() < serveNoCache {
			r.noCache = true
			fam := small[rng.Intn(len(small))]
			r.c = fam[rng.Intn(len(fam))]
		} else {
			r.c = all[rng.Intn(len(all))]
		}
		out = append(out, r)
	}
}

// sender sends one request of an open loop whose phase began at start.
type sender func(r request, start time.Time, op string) outcome

// openLoop sends reqs on their schedule over maxConns connections. Each
// connection's sender takes the next request in order when it is free
// and waits for that request's due time; when both are busy past a due
// time, the request waits, and that wait counts in its latency. The
// senders wait themselves rather than being handed requests by a
// dispatcher, so a request costs no extra goroutine wake-up.
func openLoop(ctx context.Context, reqs []request, send sender, tag string) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < maxConns; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timer := time.NewTimer(0)
			defer timer.Stop()
			<-timer.C
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				if wait := reqs[i].due - time.Since(start); wait > 0 {
					timer.Reset(wait)
					select {
					case <-timer.C:
					case <-ctx.Done():
						return
					}
				}
				out[i] = send(reqs[i], start, fmt.Sprintf("%s-%d", tag, i))
			}
		}()
	}
	wg.Wait()
	return out
}

// sender returns the HTTP sender of the serve workload.
func (e *serveEnv) sender(ctx context.Context, tr *tracer) sender {
	return func(r request, start time.Time, op string) outcome { return e.send(ctx, r, start, tr, op) }
}

func (e *serveEnv) send(ctx context.Context, r request, start time.Time, tr *tracer, op string) outcome {
	o := outcome{req: r}
	sent := time.Since(start)
	o.lag = sent - r.due
	var hdr http.Header
	if tr.on {
		hdr = http.Header{"X-Smoothproc-Trace": {op}}
	}
	var view service.JobView
	id, began := tr.begin("POST /v1/solve", op)
	o.status, o.err = e.cl.post(ctx, e.srv.base+"/v1/solve", service.SolveRequest{SpecHash: r.c.hash, Wait: true, NoCache: r.noCache}, hdr, &view)
	o.client = tr.end(id, began)
	o.latency = time.Since(start) - r.due
	if o.err == nil {
		o.err = checkAnswer(r.c, view.Result)
	}
	if view.Result != nil {
		o.cached = view.Result.Cached
	}
	o.spans = view.Spans
	o.traced = tr.on && view.TraceID == op
	return o
}

// latencies returns the requests' latencies in ms, a failed or refused
// request counting as an infinite miss.
func latencies(outs []outcome, keep func(outcome) bool) []float64 {
	var out []float64
	for _, o := range outs {
		if keep != nil && !keep(o) {
			continue
		}
		if o.err != nil {
			out = append(out, math.Inf(1))
			continue
		}
		out = append(out, ms(o.latency))
	}
	return out
}

// tail is the q-quantile of a sample that may hold infinite misses: an
// infinite rank reads as infinite.
func tail(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if v := s[int(math.Ceil(q*float64(len(s)-1)))]; math.IsInf(v, 1) {
		return v
	}
	return quantile(s, q)
}

// stepVerdict decides one ladder step: it passes when its p99 (misses
// included) meets the limit and the backlog did not grow, read as the
// last request's pick-up lag staying within the limit. goodput is the
// step's correct answers within the limit per second of the step's wall
// time, from its start to its last response.
func stepVerdict(outs []outcome, wall time.Duration) (pass bool, p99, goodput float64) {
	if len(outs) == 0 {
		return false, math.NaN(), 0
	}
	lat := latencies(outs, nil)
	ok := 0
	for _, l := range lat {
		if l <= serveLimitMs {
			ok++
		}
	}
	last := outs[len(outs)-1]
	p99 = tail(lat, 0.99)
	pass = p99 <= serveLimitMs && ms(last.lag) <= serveLimitMs
	return pass, p99, float64(ok) / wall.Seconds()
}

type serveOut struct {
	p50, p99, searchP50, goodput float64
	// The fixed-rate medians as measured, without taking out the
	// hypervisor's stolen time.
	rawP50, rawSearchP50 float64
}

// serveLoop is the serve-corpus open loop at the fixed rate. It runs in
// chunks, one per step, so that it interleaves with the run's other
// paths; the latencies are pooled over the chunks. Between chunks no
// requests are due.
type serveLoop struct {
	e      *serveEnv
	rng    *rand.Rand
	chunk  time.Duration
	tr     *tracer
	t      *tally
	before report.Stats
	outs   []outcome
	keeps  []float64 // per outcome, the share of its chunk in which the CPUs ran
	chunks int
}

func newServeLoop(ctx context.Context, e *serveEnv, rng *rand.Rand, chunk time.Duration, tr *tracer, t *tally) (*serveLoop, error) {
	l := &serveLoop{e: e, rng: rng, chunk: chunk, tr: tr, t: t}
	_, err := e.cl.get(ctx, e.srv.base+"/metrics", &l.before)
	return l, err
}

// step sends one chunk of the fixed-rate schedule.
func (l *serveLoop) step(ctx context.Context) error {
	reqs := schedule(l.rng, serveFixedRPS, l.chunk, l.e.cases, l.e.small)
	outs := openLoop(ctx, reqs, l.e.sender(ctx, l.tr), fmt.Sprintf("fixed%d", l.chunks))
	l.chunks++
	for _, o := range outs {
		l.t.check(o.err)
	}
	l.outs = append(l.outs, outs...)
	return nil
}

func (l *serveLoop) enough() bool { return l.chunks > 0 }

// settle records the share keep of the last chunk in which the CPUs ran.
func (l *serveLoop) settle(keep float64) {
	for len(l.keeps) < len(l.outs) {
		l.keeps = append(l.keeps, keep)
	}
}

// ranLatencies is latencies with each request's latency scaled by its
// chunk's share of running time.
func (l *serveLoop) ranLatencies() []float64 {
	out := latencies(l.outs, nil)
	for i := range out {
		out[i] *= l.keeps[i]
	}
	return out
}

// searchLatencies are the no_cache requests' latencies, slotted by the
// spec's family: the class mixes families whose searches differ in
// cost, so its median is read over the families' medians.
func (l *serveLoop) searchLatencies() *slotted {
	var s slotted
	fams := map[string]int{}
	for i, o := range l.outs {
		if !o.req.noCache {
			continue
		}
		f, ok := fams[o.req.c.inst.Family]
		if !ok {
			f = len(fams)
			fams[o.req.c.inst.Family] = f
		}
		lat := latencies([]outcome{o}, nil)[0]
		s.add(f, lat)
		s.ran = append(s.ran, lat*l.keeps[i])
	}
	return &s
}

// finish reads the fixed-rate latencies and the service's per-layer
// figures, then, when step is not 0, climbs the rate ladder with steps
// of that length.
func (l *serveLoop) finish(ctx context.Context, step time.Duration, log io.Writer) (serveOut, error) {
	var out serveOut
	e, tr := l.e, l.tr
	var after report.Stats
	if _, err := e.cl.get(ctx, e.srv.base+"/metrics", &after); err != nil {
		return out, err
	}
	all := l.ranLatencies()
	out.p50 = median(all)
	out.p99 = tail(all, 0.99)
	out.rawP50 = median(latencies(l.outs, nil))
	search := l.searchLatencies()
	out.searchP50 = search.quantile(0.5, true)
	out.rawSearchP50 = search.quantile(0.5, false)
	serveLayers(l.outs, l.before, after, tr)
	var lags, clients []float64
	for _, o := range l.outs {
		lags = append(lags, ms(o.lag))
		clients = append(clients, ms(o.client))
	}
	fmt.Fprintf(log, "serve fixed rate: %d requests in %d chunks; median pick-up lag %.3f ms, median send-to-response %.3f ms\n",
		len(l.outs), l.chunks, median(lags), median(clients))

	if step == 0 {
		return out, nil
	}
	for _, rate := range serveLadderRPS {
		began := time.Now()
		outs := openLoop(ctx, schedule(l.rng, rate, step, e.cases, e.small), e.sender(ctx, tr), fmt.Sprintf("ladder%.0f", rate))
		wall := time.Since(began)
		for _, o := range outs {
			l.t.check(o.err)
		}
		pass, p99, goodput := stepVerdict(outs, wall)
		fmt.Fprintf(log, "ladder %5.0f rps: %d requests, p99 %.2f ms, goodput %.1f/s, pass %v\n", rate, len(outs), p99, goodput, pass)
		if !pass {
			break
		}
		out.goodput = goodput
	}
	return out, nil
}

// serveLayers turns the fixed-rate phase into the service's per-layer
// figures: the job spans joined to each client span by trace id, the
// cache hit ratios from the /metrics deltas, the refusals, the load
// generator's lag, and the reconciliation of the client's own cached
// count against the server's result-cache counters.
func serveLayers(outs []outcome, before, after report.Stats, tr *tracer) {
	if !tr.on {
		return
	}
	var lags []float64
	var cached, solves, shed, quota float64
	for _, o := range outs {
		lags = append(lags, ms(o.lag))
		solves++
		switch o.status {
		case http.StatusServiceUnavailable:
			shed++
		case http.StatusTooManyRequests:
			quota++
		}
		if o.cached {
			cached++
		}
		if !o.traced || len(o.spans) == 0 {
			continue
		}
		var attributed float64
		for _, s := range o.spans {
			tr.sample("service."+s.Name+"_ms", s.Ms)
			attributed += s.Ms
		}
		tr.sample("service.unattributed_ms", ms(o.client)-attributed)
	}
	tr.sample("service.loadgen_lag_ms", tail(lags, 0.99))
	tr.count("service.shed_503", shed)
	tr.count("service.quota_429", quota)
	delta := func(sec, item string) float64 {
		return float64(metricsItem(after, sec, item) - metricsItem(before, sec, item))
	}
	rh, rm := delta("cache", "result hits"), delta("cache", "result misses")
	sh, sm := delta("cache", "spec hits"), delta("cache", "spec misses")
	tr.sample("service.result_cache_hit_ratio", rh/math.Max(rh+rm, 1))
	tr.sample("service.spec_cache_hit_ratio", sh/math.Max(sh+sm, 1))
	// Every solve-by-hash request should show up as one result-cache hit
	// or miss, and every cached:true answer as one hit. The gap counts
	// requests the counters missed (no_cache solves count as neither).
	tr.count("service.cache_reconcile_gap", (solves-(rh+rm))+math.Abs(cached-rh))
}
