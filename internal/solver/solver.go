// Package solver implements the operational view of smooth solutions in
// Section 3.3 of the paper: a tree rooted at ⊥ in which a node labelled u
// has a son labelled v iff u pre v and f(v) ⊑ g(u). Smooth solutions are
// the nodes that also satisfy the limit condition f = g; infinite paths
// approximate ω smooth solutions. The construction generalises Kleene's
// fixpoint chain — for a description id ⟵ h the tree degenerates to the
// chain ⊥, h(⊥), h²(⊥), ... (Theorem 4, checked in package kahn).
//
// The paper's tree branches over all one-step extensions of u; to make
// that finite the Problem supplies a candidate alphabet per channel (see
// DESIGN.md on this substitution).
package solver

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"

	"smoothproc/internal/desc"
	"smoothproc/internal/fn"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// Problem is a description together with the finite branching data the
// tree search needs.
type Problem struct {
	// D is the (usually combined) description whose smooth solutions are
	// sought.
	D desc.Description
	// Channels lists the channels over which traces are built, in a
	// deterministic exploration order.
	Channels []string
	// Alphabet gives the candidate messages per channel.
	Alphabet map[string][]value.Value
	// MaxDepth bounds the trace length explored.
	MaxDepth int
	// MaxNodes bounds the total number of tree nodes expanded; 0 means
	// no bound beyond MaxDepth.
	MaxNodes int
	// Prune disables the f(v) ⊑ g(u) edge filter when false — only used
	// by the pruning ablation (experiment E21); real searches always
	// prune. With pruning off, every one-step extension is a son and
	// smoothness is re-checked from scratch on candidate solutions.
	Prune bool
	// Memoize hands each evaluation to its one later reader: f(v) from
	// the edge check that admitted v to v's limit check, and g(u) from
	// u's limit check to u's expansion, so a tree search applies each
	// side at most once per distinct trace. Transparent to results;
	// false is the ablation, in which every read is an application.
	Memoize bool
	// CollectVisited controls whether Result.Visited is populated.
	// NewProblem turns it on (the compatible default); large
	// service-driven searches turn it off so the result stops pinning
	// every node of the explored tree. All counters (Result.Nodes,
	// Stats.Visited) are maintained either way.
	CollectVisited bool
	// Thm1 enables the Theorem 1 fast path for independent descriptions
	// (supp(f) ∩ supp(g) = ∅, the theorem's hypothesis). For a candidate
	// edge u → u·e with e outside supp(f), f(u·e) = f(u) ⊑ g(u) already
	// holds — every admitted node satisfies f ⊑ g by induction along its
	// admitting edge and monotonicity of g — so the son is admitted with
	// zero evaluations. The admitted tree is identical; only the work
	// changes. NewProblem sets this from desc.Description.Thm1Eligible
	// (independent sides, and a left side whose finite approximation is
	// support-determined); the search additionally verifies the
	// induction base f(⊥) ⊑ g(⊥) before trusting the shortcut (see
	// newSearch).
	Thm1 bool
	// Workers is the number of search workers: 0 or 1 runs the search on
	// the calling goroutine alone, a negative value uses GOMAXPROCS. It is
	// a scheduling choice, not part of the problem's identity — results
	// and every deterministic counter are byte-identical at any worker
	// count, so it is neither fingerprinted nor checkpointed.
	Workers int
	// OnSolution, when non-nil, is invoked for each smooth solution as the
	// search's commit pointer passes it, so emission is always in
	// canonical BFS order, independent of worker scheduling. The callback
	// runs on the search's critical path, holding the pool lock, and must
	// not block; buffer and hand off instead. The streaming service
	// endpoint is the intended consumer.
	OnSolution func(trace.Trace)
}

// NewProblem builds a pruned problem with sane defaults.
func NewProblem(d desc.Description, alphabet map[string][]value.Value, maxDepth int) Problem {
	chans := make([]string, 0, len(alphabet))
	for c := range alphabet {
		chans = append(chans, c)
	}
	sort.Strings(chans)
	return Problem{D: d, Channels: chans, Alphabet: alphabet, MaxDepth: maxDepth, Prune: true, Memoize: true, CollectVisited: true, Thm1: d.Thm1Eligible()}
}

// Result reports a bounded exploration of the smooth-solution tree.
type Result struct {
	// Solutions are the tree nodes satisfying the limit condition —
	// exactly the finite smooth solutions within the depth bound.
	Solutions []trace.Trace
	// Frontier are the depth-bound nodes that still have sons (or are at
	// MaxDepth); every ω smooth solution within the alphabet passes
	// through the frontier.
	Frontier []trace.Trace
	// DeadLeaves are nodes with no sons that fail the limit condition:
	// communication histories after which the process is stuck yet its
	// equations do not hold. (For a well-formed process description these
	// are nonquiescent histories whose extensions all left the alphabet.)
	DeadLeaves []trace.Trace
	// Visited lists every tree node reached, in BFS order; the root ⊥ is
	// always first. Every communication history of the described process
	// is a visited node (within the bounds). Empty when the problem opts
	// out via CollectVisited = false; Nodes and Stats.Visited still count.
	Visited []trace.Trace
	// Nodes is the number of tree nodes visited.
	Nodes int
	// Truncated reports that the search stopped early — either MaxNodes
	// ran out or the context was cancelled (see Canceled).
	Truncated bool
	// Canceled reports that the context's cancellation or deadline — not
	// the node budget — stopped the search. Canceled implies Truncated.
	Canceled bool
	// Stats instruments the search: node roles, per-level fan-out,
	// pruning effectiveness and evaluation cost. See SearchStats.
	Stats SearchStats
}

// ErrBudget is returned via Result.Truncated semantics; kept for callers
// that prefer errors.
var ErrBudget = errors.New("solver: node budget exhausted")

// root is the tree's bottom element ⊥. Tree nodes are plain traces: the
// persistent representation extends in O(1) with full prefix sharing.
var root = trace.Empty

// son is a tree node as its parent admitted it: the trace and f(trace),
// computed by the edge check f(v) ⊑ g(u) that admitted it. Every node
// has exactly one parent, so the tuple has exactly one later reader —
// the node's own limit check — and travels with the node. f is nil when
// no evaluation admitted the node (a Theorem 1 auto edge, the root, or
// the memoization ablation); the limit check then applies f itself.
type son struct {
	t trace.Trace
	f fn.Tuple
}

// search carries the machinery shared by one tree exploration: the
// problem, the compiled evaluator, and the interned candidate events —
// one Event per (channel, message) built up front, so expansion never
// re-constructs them.
type search struct {
	p Problem
	e *desc.Evaluator
	// w0 is the evaluation handle of the calling goroutine (the BFS
	// loop's worker 0, Sample, CheckInduction); spawned workers make
	// their own.
	w0 *desc.Worker
	// cands holds the per-channel candidate events in Channels order —
	// the same data as ev, but expansion iterates it as a slice so the
	// per-node inner loop never touches a map. Each event's Hash64 is
	// precomputed: expansion appends the same few events to thousands of
	// nodes, so each is hashed once per search (trace.AppendPrehashed).
	cands []candSet
	// thm1 is true when the Theorem 1 fast path is active: the problem
	// requested it (independent supports) and the induction base
	// f(⊥) ⊑ g(⊥) holds. Candidates on channels outside supp(f) are then
	// admitted without evaluation (see Problem.Thm1).
	thm1 bool
	// fanout is the total alphabet size across channels — the exact
	// capacity an expanding node's son list can need.
	fanout int
	// f0 and g0 are f(⊥) and g(⊥) as the Theorem 1 induction base
	// evaluated them (nil when it did not run, or without memoization),
	// reused by the root's limit check. base counts the two
	// applications; a search that starts at the root adds it to its
	// stats, so a decoded checkpoint — whose constructor re-evaluates
	// the base — counts nothing twice.
	f0, g0 fn.Tuple
	base   desc.EvalSnapshot
	// sonBuf is the reusable son-slot buffer of the calling goroutine:
	// capacity fanout, so expand never reallocates, and the consumer
	// copies the sons out before the next expand reuses the slots.
	// Spawned workers allocate their own.
	sonBuf []son
}

// candSet is one channel's interned candidate events and their hashes.
type candSet struct {
	ch string
	es []trace.Event
	hs []uint64
	// auto caches the Theorem 1 membership test ch ∉ supp(f); expand
	// reads it per node instead of re-testing the ChanSet. False until
	// newSearch verifies the fast path's induction base.
	auto bool
}

// newSearch builds the shared search state.
func newSearch(p Problem) *search {
	s := &search{
		p:     p,
		e:     desc.NewEvaluator(p.D),
		cands: make([]candSet, 0, len(p.Channels)),
	}
	s.w0 = s.e.NewWorker()
	for _, c := range p.Channels {
		s.fanout += len(p.Alphabet[c])
	}
	// One backing array each for every channel's events and hashes.
	es := make([]trace.Event, 0, s.fanout)
	hs := make([]uint64, 0, s.fanout)
	for _, c := range p.Channels {
		lo := len(es)
		for _, m := range p.Alphabet[c] {
			e := trace.E(c, m)
			es = append(es, e)
			hs = append(hs, e.Hash64())
		}
		s.cands = append(s.cands, candSet{ch: c, es: es[lo:], hs: hs[lo:]})
	}
	s.sonBuf = make([]son, 0, s.fanout)
	if p.Thm1 && p.Prune && !p.D.F.Omega {
		// Induction base for the fast path's invariant. If it fails, the
		// root has no sons at all (f(⊥) ⊑ f(v) ⊑ g(⊥) for any admitted
		// v), so falling back to the full edge check costs nothing. The
		// F.Omega re-check guards callers that set Thm1 by hand on an
		// ω-approximation left side, for which auto-admit is unsound.
		f0 := s.w0.F(trace.Empty, &s.base)
		g0 := s.w0.G(trace.Empty, &s.base)
		s.thm1 = f0.Leq(g0)
		if p.Memoize {
			s.f0, s.g0 = f0, g0
		}
		if s.thm1 {
			for i := range s.cands {
				s.cands[i].auto = !p.D.F.Support.Has(s.cands[i].ch)
			}
		}
	}
	return s
}

// fromRoot runs a search from the root into a fresh Result, counting the
// induction base's applications (see search.base).
func (s *search) fromRoot(ctx context.Context, workers int, cp *Checkpoint) Result {
	var res Result
	res.Stats.Eval = s.base
	s.loop(ctx, &res, []son{{t: root, f: s.f0}}, workers, cp)
	return res
}

// Enumerate explores the Section 3.3 tree breadth-first to the problem's
// bounds and classifies every visited node, with p.Workers workers (see
// loop). Each node carries f of itself from the edge that admitted it,
// and g(u) goes from u's limit check to its expansion (see
// Problem.Memoize), so f and g are applied at most once per distinct
// trace; Result.Stats accounts for every node and edge.
//
// The context is checked once per visited node: cancellation or an
// expired deadline stops the search with Truncated and Canceled set, so
// adversarial problems (wide alphabets, deep probes) cannot run
// unbounded when the caller holds a deadline.
func Enumerate(ctx context.Context, p Problem) Result {
	return newSearch(p).fromRoot(ctx, workerCount(p.Workers), nil)
}

// workerCount resolves a Workers setting: 0 or 1 is one worker on the
// calling goroutine, a negative value is GOMAXPROCS.
func workerCount(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(w, 1)
}

// limit evaluates the limit condition f(t) = g(t) at node n, reusing
// n.f when its admitting edge computed it. It returns g(t) for the
// node's expansion — nil without memoization, so expansion applies g
// again, which is the ablation.
func (s *search) limit(w *desc.Worker, n son, ev *desc.EvalSnapshot) (bool, fn.Tuple) {
	f := n.f
	if f != nil {
		ev.FHits++
	} else {
		f = w.F(n.t, ev)
	}
	var g fn.Tuple
	if s.g0 != nil && n.t.Len() == 0 {
		g = s.g0
		ev.GHits++
	} else {
		g = w.G(n.t, ev)
	}
	ok := f.Equal(g)
	if !s.p.Memoize {
		g = nil
	}
	return ok, g
}

// classify decides the limit condition at a node, with the full
// smoothness re-check the unpruned ablation requires, and returns g of
// the node as limit does.
func (s *search) classify(w *desc.Worker, n son, st *SearchStats) (bool, fn.Tuple) {
	st.LimitChecks++
	isSolution, g := s.limit(w, n, &st.Eval)
	if !s.p.Prune && isSolution {
		// Without pruning, nodes are not reachable only through smooth
		// edges: re-check the full smoothness condition.
		isSolution = s.p.D.IsSmoothFinite(n.t) == nil
	}
	return isSolution, g
}

// guOf returns g(u) for an expansion: gu when u's limit check handed it
// over (a reuse), an application otherwise.
func guOf(w *desc.Worker, u trace.Trace, gu fn.Tuple, ev *desc.EvalSnapshot) fn.Tuple {
	if gu != nil {
		ev.GHits++
		return gu
	}
	return w.G(u, ev)
}

// expand generates the smooth sons of u, given g(u) from u's limit
// check (nil: apply it here). g(u) is read at most once per node — not
// once per candidate, and not at all when the Theorem 1 fast path admits
// every candidate — and each rejected candidate is a whole subtree of
// the unpruned tree cut before any of it is expanded. Each son is an
// O(1) persistent extension sharing u's spine, and carries the f tuple
// its edge check computed.
//
// dst, when non-nil, supplies the son slots (a reusable buffer of
// capacity fanout); callers that retain the returned slice past the
// next expand — the resume frontier of a capture — must pass nil.
func (s *search) expand(w *desc.Worker, u trace.Trace, gu fn.Tuple, st *SearchStats, dst []son) []son {
	sons := dst
	lvl := st.level(u.Len() + 1)
	guReady := false
	for ci := range s.cands {
		// Fast path (Theorem 1): a channel outside supp(f) means
		// f(u·e) = f(u), and f(u) ⊑ g(u) holds at every admitted node, so
		// the edge condition f(v) ⊑ g(u) is guaranteed — admit without
		// evaluating.
		c := &s.cands[ci]
		auto := c.auto
		for i, e := range c.es {
			v := son{t: u.AppendPrehashed(e, c.hs[i])}
			st.EdgesChecked++
			if s.p.Prune {
				if auto {
					st.Thm1AutoEdges++
				} else {
					if !guReady {
						gu = guOf(w, u, gu, &st.Eval)
						guReady = true
					}
					fv := w.F(v.t, &st.Eval)
					if !fv.Leq(gu) {
						st.SubtreesPruned++
						lvl.Pruned++
						continue
					}
					if s.p.Memoize {
						v.f = fv
					}
				}
			}
			st.EdgesKept++
			if sons == nil {
				sons = make([]son, 0, s.fanout)
			}
			sons = append(sons, v)
		}
	}
	return sons
}

// hasSon reports whether a depth-bound node has a smooth son, stopping at
// the first witness, given g(u) as expand takes it. Failed candidates
// are pruned subtrees like expand's; the witness is counted separately
// since it is never enqueued. A Theorem-1 auto-admitted candidate is an
// immediate witness.
func (s *search) hasSon(w *desc.Worker, u trace.Trace, gu fn.Tuple, st *SearchStats) bool {
	lvl := st.level(u.Len() + 1)
	guReady := false
	for ci := range s.cands {
		c := &s.cands[ci]
		auto := c.auto
		for i, e := range c.es {
			v := u.AppendPrehashed(e, c.hs[i])
			st.EdgesChecked++
			if auto {
				st.Thm1AutoEdges++
				st.FrontierWitnesses++
				return true
			}
			if !guReady {
				gu = guOf(w, u, gu, &st.Eval)
				guReady = true
			}
			if w.F(v, &st.Eval).Leq(gu) {
				st.FrontierWitnesses++
				return true
			}
			st.SubtreesPruned++
			lvl.Pruned++
		}
	}
	return false
}

// Contains reports whether the result's solutions include t.
func (r Result) Contains(t trace.Trace) bool {
	for _, s := range r.Solutions {
		if s.Equal(t) {
			return true
		}
	}
	return false
}

// SolutionKeys returns the canonical strings of all solutions, sorted —
// convenient for table-driven tests. These are the human-readable
// renderings (Trace.String), not the (hash, length) memo keys.
func (r Result) SolutionKeys() []string {
	keys := make([]string, len(r.Solutions))
	for i, s := range r.Solutions {
		keys[i] = s.String()
	}
	sort.Strings(keys)
	return keys
}

// IsTreeNode reports whether t is a node of the Section 3.3 tree, i.e.
// every consecutive prefix pair is a smooth edge. Every communication
// history of a process — every prefix of a run trace, quiescent or not —
// must be a tree node; the conformance harness (package check) relies on
// this.
func IsTreeNode(d desc.Description, t trace.Trace) bool {
	ok := true
	t.PrePairs(func(u, v trace.Trace) bool {
		ok = d.EdgeOK(u, v)
		return ok
	})
	return ok
}

// CheckInduction discharges the Section 8.4 smooth-solution induction
// rule over the bounded tree: it verifies φ(⊥), then checks the inductive
// step along every explored edge, and — soundness of the rule — confirms
// φ on every smooth solution. It returns an error describing the first
// failed premise; if the premises hold but some solution violates φ, the
// returned error says so (and would indicate a bug, since the rule is
// sound).
//
// The tree is explored exactly once: each dequeued node is classified by
// the limit condition during the same walk that checks the inductive
// step along its out-edges, each node carrying f of itself from its
// admitting edge as in Enumerate — there is no second Enumerate pass.
func CheckInduction(ctx context.Context, p Problem, phi func(trace.Trace) bool) error {
	if !phi(trace.Empty) {
		return errors.New("solver: induction base φ(⊥) fails")
	}
	s := newSearch(p)
	var st SearchStats
	queue := []son{{t: root, f: s.f0}}
	nodes := 0
	var unsound error
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		nodes++
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("solver: induction check stopped: %w", err)
		}
		if p.MaxNodes > 0 && nodes > p.MaxNodes {
			return ErrBudget
		}
		// Soundness check, folded into the single walk: a node that
		// satisfies the limit condition is a smooth solution, and φ must
		// hold there. The verdict is deferred — premise failures found
		// anywhere in the walk take precedence, matching the rule's
		// reading (an unsound conclusion only matters once the premises
		// are discharged).
		sol, g := s.classify(s.w0, n, &st)
		if unsound == nil && sol && !phi(n.t) {
			unsound = fmt.Errorf("solver: induction rule unsound?! φ fails on smooth solution %s", n.t)
		}
		if n.t.Len() >= p.MaxDepth {
			continue
		}
		for _, v := range s.expand(s.w0, n.t, g, &st, s.sonBuf[:0]) {
			if err := p.D.InductionPremise(phi, n.t, v.t); err != nil {
				return err
			}
			queue = append(queue, v)
		}
	}
	return unsound
}
