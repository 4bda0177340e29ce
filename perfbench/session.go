package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"smoothproc/internal/netgen"
	"smoothproc/internal/service"
	"smoothproc/internal/session"
	"smoothproc/internal/solver"
	"smoothproc/internal/specplan"
	"smoothproc/internal/store"
)

// sessionLegNodes bounds the planner's node bracket top at an episode's
// final depth. Checkpoint encoding grows faster than the tree, so this
// caps the largest leg's encode at well under a second.
const sessionLegNodes = 2500

// stressShapes is the fixed order in which session episodes cycle over
// the buffer-farm shapes netgen.Stress generates, so every run covers
// the same mix and only the stress seeds come from the run's seed.
var stressShapes = []string{
	"buffer(m=2)", "buffer(m=3)", "buffer(m=4)",
	"twin-buffer(m=2)", "twin-buffer(m=3)", "twin-buffer(m=4)",
}

// episode is one session's plan: a stress spec (its own hash) deepened
// one level per leg from depth 1 to depth-1, then restarted and resumed
// to depth.
type episode struct {
	inst  *netgen.StressInstance
	depth int
}

// episodeDrawer hands out episodes in stressShapes order, drawing stress
// seeds from the run's seed until one of the wanted shape turns up.
type episodeDrawer struct {
	rng  *rand.Rand
	next int
	seen map[int64]bool
	cfg  netgen.StressConfig
}

func newEpisodeDrawer(seed int64, cfg netgen.StressConfig) *episodeDrawer {
	return &episodeDrawer{rng: rand.New(rand.NewSource(seed)), seen: map[int64]bool{}, cfg: cfg}
}

func (d *episodeDrawer) draw() (episode, error) {
	want := stressShapes[d.next%len(stressShapes)]
	d.next++
	for tries := 0; tries < 10000; tries++ {
		s := d.rng.Int63n(1 << 40)
		if d.seen[s] {
			continue
		}
		inst, err := netgen.Stress(s, d.cfg)
		if err != nil {
			return episode{}, err
		}
		if !strings.HasPrefix(inst.Shape, want+" ") {
			continue
		}
		d.seen[s] = true
		plan := specplan.Analyze(inst.Prog.System, inst.Prog.Alphabet, inst.Depth)
		depth := 2
		for dd := 3; dd <= min(inst.Depth, solveMaxDepth); dd++ {
			if plan.Nodes(dd) <= sessionLegNodes {
				depth = dd
			}
		}
		return episode{inst: inst, depth: depth}, nil
	}
	return episode{}, fmt.Errorf("session draw: no stress seed of shape %s", want)
}

// coldRefs caches cold library solves by spec body (the source without
// its seed comment, so every seed of a shape shares them) and depth.
type coldRefs map[string][]string

func (refs coldRefs) at(ctx context.Context, inst *netgen.StressInstance, depth int) []string {
	body := inst.Source[strings.IndexByte(inst.Source, '\n')+1:]
	key := fmt.Sprintf("%d|%s", depth, body)
	if r, ok := refs[key]; ok {
		return r
	}
	p := inst.Prog.Problem()
	p.MaxDepth = depth
	p.CollectVisited = false
	r := solver.Enumerate(ctx, p).SolutionKeys()
	sort.Strings(r)
	refs[key] = r
	return r
}

// sessionEnv is a daemon with a disk store under a temporary directory.
type sessionEnv struct {
	dir string
	srv *server
	cl  *client
	tr  *tracer
}

func (e *sessionEnv) config() (service.Config, error) {
	if !e.tr.on {
		return service.Config{DataDir: e.dir}, nil
	}
	return serviceConfig(e.tr, true, func() (store.Store, error) {
		d, err := store.NewDisk(e.dir)
		return d, err
	})
}

func setupSession(tmpRoot string, tr *tracer) (*sessionEnv, error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "session-")
	if err != nil {
		return nil, err
	}
	e := &sessionEnv{dir: dir, cl: newClient(), tr: tr}
	cfg, err := e.config()
	if err == nil {
		e.srv, err = startServer(cfg)
	}
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return e, nil
}

// restart is the daemon restart between legs: Shutdown, then a new
// service.New on the same data directory.
func (e *sessionEnv) restart(ctx context.Context) error {
	if err := e.srv.stop(ctx); err != nil {
		return err
	}
	e.cl.close()
	cfg, err := e.config()
	if err != nil {
		return err
	}
	e.srv, err = startServer(cfg)
	return err
}

func (e *sessionEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	e.cl.close()
	if e.srv != nil {
		_ = e.srv.stop(ctx)
	}
	os.RemoveAll(e.dir)
}

type sessionOut struct {
	legP50, legP90, restoreP50, nodesPerS float64
}

// leg sends one session leg and checks its solutions against a cold
// solve at the leg's depth. It returns the leg's latency and the nodes
// the leg added.
func (e *sessionEnv) leg(ctx context.Context, url string, req service.SessionRequest, ep episode, refs coldRefs, prevNodes int, t *tally) (time.Duration, int, string) {
	var view service.SessionView
	var err error
	op := fmt.Sprintf("%s/d%d", ep.inst.Name, req.Depth)
	d := e.tr.timed("POST "+strings.TrimPrefix(url, e.srv.base), op, func() {
		_, err = e.cl.post(ctx, url, req, nil, &view)
	})
	if err == nil {
		err = checkLeg(ep, req.Depth, &view, refs.at(ctx, ep.inst, req.Depth))
	}
	t.check(err)
	if err != nil {
		return d, 0, view.SpecHash
	}
	return d, view.Nodes - prevNodes, view.SpecHash
}

func checkLeg(ep episode, depth int, view *service.SessionView, ref []string) error {
	if view.Result == nil {
		return fmt.Errorf("%s d%d: session leg without a result", ep.inst.Name, depth)
	}
	if view.Depth != depth || view.Result.Truncated {
		return fmt.Errorf("%s d%d: session at depth %d (truncated %v)", ep.inst.Name, depth, view.Depth, view.Result.Truncated)
	}
	got := append([]string(nil), view.Result.Solutions...)
	sort.Strings(got)
	if !slices.Equal(got, ref) {
		return fmt.Errorf("%s d%d: %d session solutions, cold solve has %d (sets differ)", ep.inst.Name, depth, len(got), len(ref))
	}
	return nil
}

// sessionLoop is the session-durable closed loop. In each episode one
// client creates a session at depth 1, deepens it one level per leg,
// restarts the daemon and resumes the last level from the persisted
// checkpoint. Each episode is a fresh spec. A step is one whole cycle of
// episodes over stressShapes, so every run measures the same mix of
// shapes.
type sessionLoop struct {
	e        *sessionEnv
	draw     *episodeDrawer
	refs     coldRefs
	tr       *tracer
	t        *tally
	legs     slotted // leg latencies, slot = shape and depth
	restores slotted // latencies of the first leg after each restart, slot = shape
	nodes    int
	busy     time.Duration
	episodes int
	// ranBusy is busy with the hypervisor's stolen share of each cycle
	// taken out, up to settledBusy.
	ranBusy     time.Duration
	settledBusy time.Duration
}

func newSessionLoop(e *sessionEnv, draw *episodeDrawer, tr *tracer, t *tally) *sessionLoop {
	return &sessionLoop{e: e, draw: draw, refs: coldRefs{}, tr: tr, t: t}
}

// step runs one cycle of episodes.
func (l *sessionLoop) step(ctx context.Context) error {
	for range stressShapes {
		if err := l.episode(ctx); err != nil {
			return err
		}
	}
	return nil
}

func (l *sessionLoop) episode(ctx context.Context) error {
	e := l.e
	ep, err := l.draw.draw()
	if err != nil {
		return err
	}
	l.episodes++
	shape := (l.episodes - 1) % len(stressShapes)
	var replay *sessionReplay
	if l.tr.on {
		replay = newSessionReplay(ep)
	}
	prev := 0
	var hash string
	for depth := 1; depth < ep.depth; depth++ {
		url := e.srv.base + "/v1/sessions"
		req := service.SessionRequest{Depth: depth}
		if depth == 1 {
			req.Source = ep.inst.Source
		} else {
			url += "/" + hash + "/resume"
		}
		d, added, h := e.leg(ctx, url, req, ep, l.refs, prev, l.t)
		if depth == 1 {
			hash = h
		}
		l.legs.add(shape<<8|depth, ms(d))
		l.nodes += added
		prev += added
		l.busy += d
		replay.leg(ctx, depth, l.tr)
	}
	if err := e.restart(ctx); err != nil {
		return err
	}
	url := e.srv.base + "/v1/sessions/" + hash + "/resume"
	d, added, _ := e.leg(ctx, url, service.SessionRequest{Depth: ep.depth}, ep, l.refs, prev, l.t)
	l.restores.add(shape, ms(d))
	l.nodes += added
	l.busy += d
	replay.leg(ctx, ep.depth, l.tr)
	return nil
}

func (l *sessionLoop) enough() bool { return l.episodes > 0 }

// settle records the share keep of the last cycle in which the CPUs ran.
func (l *sessionLoop) settle(keep float64) {
	l.legs.settle(keep)
	l.restores.settle(keep)
	l.ranBusy += time.Duration(float64(l.busy-l.settledBusy) * keep)
	l.settledBusy = l.busy
}

// result reads the legs as measured, or with the stolen time taken out
// when ran is set.
func (l *sessionLoop) result(ran bool) sessionOut {
	busy := l.busy
	if ran {
		busy = l.ranBusy
	}
	return sessionOut{
		legP50:     l.legs.quantile(0.5, ran),
		legP90:     l.legs.quantile(0.9, ran),
		restoreP50: l.restores.quantile(0.5, ran),
		nodesPerS:  float64(l.nodes) / busy.Seconds(),
	}
}

// sessionReplay mirrors an episode's legs through the library in the
// traced run — session.Solve, then Encode and Decode of the result —
// timing each call and the solver's checkpoint codec inside them.
type sessionReplay struct {
	ep   episode
	p    solver.Problem
	sess *session.Session
}

func newSessionReplay(ep episode) *sessionReplay {
	p := ep.inst.Prog.Problem()
	p.CollectVisited = false
	return &sessionReplay{ep: ep, p: p, sess: session.New(ep.inst.Name, p, ep.inst.Prog.System)}
}

func (r *sessionReplay) leg(ctx context.Context, depth int, tr *tracer) {
	if r == nil {
		return
	}
	op := fmt.Sprintf("%s/d%d", r.ep.inst.Name, depth)
	var err error
	d := tr.timed("session.Solve", op, func() { _, _, err = r.sess.Solve(ctx, session.Options{Depth: depth}) })
	if err != nil {
		tr.count("session.errors", 1)
		return
	}
	if depth > 1 {
		tr.sample("session.resume_ms", ms(d))
	}
	tr.sample("session.frontier", float64(r.sess.FrontierSize()))
	var blob session.Blob
	d = tr.timed("session.Encode", op, func() { blob, err = r.sess.Encode() })
	if err != nil {
		tr.count("session.errors", 1)
		return
	}
	tr.sample("session.encode_ms", ms(d))
	tr.sample("solver.checkpoint_bytes", float64(len(blob.Checkpoint)))
	if d > 0 {
		tr.sample("solver.checkpoint_encode_mb_per_s", float64(len(blob.Checkpoint))/1e6/d.Seconds())
	}
	fetch := func(string) ([]byte, error) { return blob.Checkpoint, nil }
	d = tr.timed("session.Decode", op, func() { _, err = session.Decode(blob.Meta, r.p, r.ep.inst.Prog.System, fetch) })
	if err != nil {
		tr.count("session.errors", 1)
		return
	}
	tr.sample("session.decode_ms", ms(d))
	d = tr.timed("solver.DecodeCheckpoint", op, func() { _, err = solver.DecodeCheckpoint(blob.Checkpoint, r.p) })
	if err != nil {
		tr.count("session.errors", 1)
		return
	}
	tr.sample("solver.checkpoint_decode_ms", ms(d))
}
