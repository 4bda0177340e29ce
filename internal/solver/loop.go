package solver

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"smoothproc/internal/trace"
)

// maxChunk caps how many frontier nodes one claim takes from the shared
// pool. Small enough that a worker never hoards a level, large enough
// that wide levels amortize the pool lock.
const maxChunk = 64

// nodeOut is one node's classification, keyed by its canonical BFS
// index. Outputs are index-addressed, which is what makes the merged
// result independent of which worker processed the node and when.
type nodeOut struct {
	done     bool
	solution bool
	frontier bool
	dead     bool
	closed   bool
	// bound marks a depth-bound node visited in capture mode: its sons
	// were fully expanded for the resume frontier but must never enter
	// the canonical order (the commit loop skips them; the capture
	// collection reads them instead).
	bound bool
	sons  []trace.Trace
}

// slot is one position of the canonical BFS order: the node and, once
// a worker has visited it, its classification.
type slot struct {
	node trace.Trace
	out  nodeOut
}

// span is a claimed range of canonical BFS indices [pos, hi). The owner
// takes nodes from the front; a thief takes the back half.
type span struct {
	pos, hi int
}

// wsState is the shared state of one work-stealing search. One mutex
// guards all of it: the search's unit of work (classify + expand one
// node, typically several f/g evaluations) is orders of magnitude
// heavier than a pool operation, so striping here would buy nothing.
//
// slots is the canonical BFS order of the tree: commit appends the sons
// of node i (already in channel/alphabet order from expand) before
// those of node i+1, regardless of which worker finished first.
// committed is the length of the contiguous prefix of slots that is
// done — the only nodes whose sons exist in slots, and exactly the
// nodes the final merge classifies.
type wsState struct {
	mu   sync.Mutex
	cond sync.Cond
	wg   sync.WaitGroup

	slots     []slot
	committed int
	next      int // first unclaimed index; next ≤ min(len(slots), limit)
	doneCnt   int // nodes completed (in or out of order)
	limit     int // MaxNodes, or math.MaxInt when unbounded

	spans    []span
	steals   int64
	idles    int64
	stopped  bool // no more work will ever be claimable
	canceled bool
	panicked *WorkerPanic // first panic of a spawned worker

	// capture selects the checkpoint semantics for depth-bound nodes
	// (full expansion, sons retained, never committed into slots).
	capture bool
	// emit, when non-nil, receives each solution as the commit pointer
	// passes it — canonical order by construction, independent of which
	// worker classified the node. Called with mu held (commits advance
	// monotonically under it), so it must not block; see
	// Problem.OnSolution.
	emit func(trace.Trace)
}

// claimable returns how far next may advance right now.
func (ws *wsState) claimable() int {
	return min(len(ws.slots), ws.limit)
}

// handoff is worker w's one critical section per node: it records the
// node the worker just visited (index i, output o; i < 0 on the first
// call) and hands it its next node. The unlock is deferred because
// record runs caller code (Problem.OnSolution): a panicking callback
// must not leave the lock held while the pool drains.
func (ws *wsState) handoff(ctx context.Context, w, i int, o nodeOut) (int, trace.Trace, bool) {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if i >= 0 {
		ws.record(i, o)
	}
	return ws.take(ctx, w)
}

// take hands worker w its next node, blocking while other workers may
// still commit sons. It returns ok=false when the search is over: every
// claimable node is done, or the context was cancelled. Cancellation is
// checked here, once per node, so a cancelled search abandons whole
// spans but never a node mid-classification. Called with mu held.
func (ws *wsState) take(ctx context.Context, w int) (int, trace.Trace, bool) {
	for {
		if ws.stopped {
			return 0, trace.Trace{}, false
		}
		if ctx.Err() != nil {
			ws.canceled = true
			ws.stopped = true
			ws.cond.Broadcast()
			return 0, trace.Trace{}, false
		}
		if sp := &ws.spans[w]; sp.pos < sp.hi {
			i := sp.pos
			sp.pos++
			return i, ws.slots[i].node, true
		}
		if avail := ws.claimable(); ws.next < avail {
			// Refill from the unclaimed pool: an even split of what's
			// there, capped so late-arriving sons still spread out.
			chunk := (avail - ws.next) / len(ws.spans)
			if chunk < 1 {
				chunk = 1
			}
			if chunk > maxChunk {
				chunk = maxChunk
			}
			ws.spans[w] = span{pos: ws.next, hi: ws.next + chunk}
			ws.next += chunk
			continue
		}
		// Pool dry: steal the back half of the largest remaining span.
		// (A remainder of 1 is left alone — migrating a single node just
		// moves the work without sharing it.)
		victim, best := -1, 1
		for v := range ws.spans {
			if rem := ws.spans[v].hi - ws.spans[v].pos; rem > best {
				victim, best = v, rem
			}
		}
		if victim >= 0 {
			vs := &ws.spans[victim]
			mid := vs.pos + (best+1)/2
			ws.spans[w] = span{pos: mid, hi: vs.hi}
			vs.hi = mid
			ws.steals++
			continue
		}
		if ws.doneCnt == ws.next {
			// Nothing claimable, nothing stealable, nothing in flight:
			// commit has caught up and slots can never grow again.
			ws.stopped = true
			ws.cond.Broadcast()
			return 0, trace.Trace{}, false
		}
		// Other workers are mid-node; their sons may refill the pool.
		ws.idles++
		ws.cond.Wait()
	}
}

// record stores node i's output and advances the commit pointer,
// appending newly admitted sons — in canonical order — to the shared
// frontier. Every completion wakes parked workers: either the frontier
// grew, a span became stealable earlier, or the search just finished.
// Called with mu held.
//
// Below the depth bound o.sons lives in the completing worker's reusable
// buffer, which its next visit overwrites. A node completing at the
// commit pointer (always, with one worker) appends its sons straight
// from that buffer; only an out-of-order completion copies them.
func (ws *wsState) record(i int, o nodeOut) {
	o.done = true
	if i != ws.committed && !o.bound && len(o.sons) > 0 {
		o.sons = append([]trace.Trace(nil), o.sons...)
	}
	ws.slots[i].out = o
	ws.doneCnt++
	for ws.committed < len(ws.slots) && ws.slots[ws.committed].out.done {
		sl := &ws.slots[ws.committed]
		if sl.out.solution && ws.emit != nil {
			ws.emit(sl.node)
		}
		if !sl.out.bound {
			sons := sl.out.sons
			sl.out.sons = nil
			for _, son := range sons {
				ws.slots = append(ws.slots, slot{node: son})
			}
		}
		ws.committed++
	}
	ws.cond.Broadcast()
}

// stop ends the search for every worker: nothing more is claimable, and
// parked workers wake to see it.
func (ws *wsState) stop() {
	ws.mu.Lock()
	ws.stopped = true
	ws.cond.Broadcast()
	ws.mu.Unlock()
}

// WorkerPanic is what a search re-panics with on the calling goroutine
// when a spawned worker panicked — an opaque Go-closure side that
// panics on some trace, say. The search stops every worker first, so
// none is left parked waiting for the node that never completed.
type WorkerPanic struct {
	// Value is the first spawned worker's panic value.
	Value any
	// Stack is that worker's stack at the panic.
	Stack []byte
}

func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("solver: search worker panicked: %v\n\n%s", p.Value, p.Stack)
}

// recoverWorker is deferred by each spawned worker: it records the first
// panic and stops the search, so the pool drains instead of hanging.
func (ws *wsState) recoverWorker() {
	if v := recover(); v != nil {
		ws.mu.Lock()
		if ws.panicked == nil {
			ws.panicked = &WorkerPanic{Value: v, Stack: debug.Stack()}
		}
		ws.mu.Unlock()
		ws.stop()
	}
}

// work is worker w's handoff–visit cycle, accounting edge and level
// counters into st and expanding into buf.
func (s *search) work(ctx context.Context, ws *wsState, w int, st *SearchStats, buf []trace.Trace) {
	i, o := -1, nodeOut{}
	for {
		var cur trace.Trace
		var ok bool
		if i, cur, ok = ws.handoff(ctx, w, i, o); !ok {
			return
		}
		o = s.visit(cur, st, ws.capture, buf)
	}
}

// loop is the search's one BFS loop: a work-stealing pool of workers
// over a seed queue in canonical BFS order, folding classifications into
// res — which may arrive pre-loaded with a resumed search's classified
// prefix. There is no per-level barrier: workers claim chunks of the
// shared frontier, steal from each other when their chunk runs dry, and
// each finished node feeds its sons back the moment the commit pointer
// reaches it. Results are byte-identical at any worker count —
// Solutions, Frontier, DeadLeaves and Visited in the same order, and
// every deterministic SearchStats counter equal (see DESIGN.md on why
// determinism survives stealing; Steals and IdleWaits are the
// scheduling-dependent residue). The calling goroutine is worker 0, so
// one worker spawns no goroutine at all.
//
// The node budget is exact: claims stop at MaxNodes, so a truncated
// search classifies exactly MaxNodes nodes and then observes one more as
// Skipped. Cancellation is checked once per claimed node; a cancelled
// run keeps the contiguous committed prefix of the canonical order
// (everything in it is genuine) plus one Skipped node.
//
// A nil cp selects the plain semantics. A non-nil cp selects capture
// semantics: depth-bound nodes are fully expanded (instead of probed
// with hasSon) and their admitted sons retained in cp as the resume
// frontier, and a truncated run records its uncommitted remainder as
// cp.pending. Classification of every node is identical in both modes —
// a bound node is Frontier iff it has at least one son — only the
// bound-level edge accounting differs (see Checkpoint).
func (s *search) loop(ctx context.Context, res *Result, seed []trace.Trace, workers int, cp *Checkpoint) {
	p := s.p
	st := &res.Stats
	st.Workers = workers
	st.Thm1FastPath = s.thm1
	start := time.Now()

	// slots start with room for the seed and one expansion.
	ws := &wsState{
		slots:   make([]slot, len(seed), len(seed)+s.fanout),
		limit:   math.MaxInt,
		spans:   make([]span, workers),
		capture: cp != nil,
		emit:    p.OnSolution,
	}
	for i, t := range seed {
		ws.slots[i].node = t
	}
	ws.cond.L = &ws.mu
	if p.MaxNodes > 0 {
		// res.Nodes already counts the resumed prefix; the budget for this
		// leg is whatever the prefix left over (callers validate it is
		// positive). Claims stop at the limit index: exactly MaxNodes
		// nodes classified in total.
		ws.limit = p.MaxNodes - res.Nodes
	}

	// Worker 0 accounts edge and level counters straight into st; each
	// spawned worker into its own shard, with no sharing. The totals are
	// sums over the deterministic node set, so the merged counters are
	// deterministic even though the partition into shards is not.
	shards := make([]SearchStats, workers-1)
	for w := 1; w < workers; w++ {
		ws.wg.Add(1)
		go func(w int) {
			defer ws.wg.Done()
			defer ws.recoverWorker()
			s.work(ctx, ws, w, &shards[w-1], make([]trace.Trace, 0, s.fanout))
		}(w)
	}
	func() {
		// A panic on the calling goroutine propagates as is, but only
		// after the spawned workers have drained.
		ok := false
		defer func() {
			if !ok {
				ws.stop()
				ws.wg.Wait()
			}
		}()
		s.work(ctx, ws, 0, st, s.sonBuf)
		ok = true
	}()
	ws.wg.Wait()
	if ws.panicked != nil {
		panic(ws.panicked)
	}

	// Merge. Only the contiguous committed prefix is classified — those
	// are exactly the nodes whose sons made it into the canonical order.
	if p.CollectVisited {
		res.Visited = slices.Grow(res.Visited, ws.committed+1)
	}
	for i := 0; i < ws.committed; i++ {
		cur, o := ws.slots[i].node, &ws.slots[i].out
		res.Nodes++
		if p.CollectVisited {
			res.Visited = append(res.Visited, cur)
		}
		st.Visited++
		lvl := st.level(cur.Len())
		lvl.Nodes++
		if o.solution {
			res.Solutions = append(res.Solutions, cur)
			st.Solutions++
			lvl.Solutions++
		}
		switch {
		case o.frontier:
			res.Frontier = append(res.Frontier, cur)
			st.Frontier++
		case o.dead:
			res.DeadLeaves = append(res.DeadLeaves, cur)
			st.Dead++
		case o.closed:
			st.Closed++
		default:
			st.Interior++
		}
	}
	for _, sh := range shards {
		st.merge(sh)
	}
	st.Steals += ws.steals
	st.IdleWaits += ws.idles

	// Capture collection, in committed (canonical) order: bound nodes
	// with sons form the resume frontier; an uncommitted remainder of the
	// order is the pending queue a truncated capture resumes from.
	if cp != nil {
		for i := 0; i < ws.committed; i++ {
			if sl := &ws.slots[i]; sl.out.bound && sl.out.frontier {
				cp.frontier = append(cp.frontier, frontierEntry{node: sl.node, sons: sl.out.sons})
				st.RetainedSons += len(sl.out.sons)
			}
		}
		for _, sl := range ws.slots[ws.committed:] {
			cp.pending = append(cp.pending, sl.node)
		}
	}

	// Truncation accounting: the first node past the stopping point is
	// visited but skipped — counted in Nodes and Visited, never
	// classified, no level entry.
	if ws.committed < len(ws.slots) {
		res.Truncated = true
		res.Canceled = ws.canceled
		cur := ws.slots[ws.committed].node
		res.Nodes++
		if p.CollectVisited {
			res.Visited = append(res.Visited, cur)
		}
		st.Visited++
		st.Skipped++
	}

	st.Eval = s.e.Snapshot()
	st.CompiledEval = s.e.Compiled()
	st.Elapsed += time.Since(start)
}

// visit classifies one node: limit condition, role, and — below the
// depth bound — its admitted sons, written into buf. Pure with respect
// to the shared search state; all counters go to the caller's st.
// capture selects the checkpoint semantics at the depth bound (full
// expansion, retained for the resume frontier, so never in buf).
func (s *search) visit(cur trace.Trace, st *SearchStats, capture bool, buf []trace.Trace) nodeOut {
	var o nodeOut
	o.solution = s.classify(cur, st)
	if cur.Len() >= s.p.MaxDepth {
		if capture {
			o.bound = true
			o.sons = s.expand(cur, st, nil)
			if len(o.sons) > 0 {
				o.frontier = true
			} else if !o.solution {
				o.dead = true
			} else {
				o.closed = true
			}
			return o
		}
		if s.hasSon(cur, st) {
			o.frontier = true
		} else if !o.solution {
			o.dead = true
		} else {
			o.closed = true
		}
		return o
	}
	o.sons = s.expand(cur, st, buf[:0])
	if len(o.sons) == 0 {
		if o.solution {
			o.closed = true
		} else {
			o.dead = true
		}
	}
	return o
}

// merge folds one worker shard's edge/level counters into the
// aggregate. Node roles and per-level node counts are accounted by the
// canonical merge loop; shards only carry edge fates and per-level
// prunes.
func (s *SearchStats) merge(o SearchStats) {
	s.LimitChecks += o.LimitChecks
	s.EdgesChecked += o.EdgesChecked
	s.EdgesKept += o.EdgesKept
	s.SubtreesPruned += o.SubtreesPruned
	s.FrontierWitnesses += o.FrontierWitnesses
	s.Thm1AutoEdges += o.Thm1AutoEdges
	for _, l := range o.Levels {
		dst := s.level(l.Depth)
		dst.Pruned += l.Pruned
	}
}
