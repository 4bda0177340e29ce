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
	// Memoize caches f and g evaluations across the whole search (one
	// desc.Evaluator per Enumerate/EnumerateCapture/Sample call), so
	// shared trace prefixes are evaluated once. Transparent to results;
	// false is the memoization ablation.
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
// persistent representation extends in O(1) with full prefix sharing,
// and Trace.Key gives the evaluator its (hash, length) memo key in O(1),
// so no per-node key string is maintained any more.
var root = trace.Empty

// search carries the machinery shared by one tree exploration: the
// problem, the memoized evaluator, and the interned candidate events —
// one Event per (channel, message) built up front, so expansion never
// re-constructs them.
type search struct {
	p Problem
	e *desc.Evaluator
	// cands holds the per-channel candidate events in Channels order —
	// the same data as ev, but expansion iterates it as a slice so the
	// per-node inner loop never touches a map. Each event's Hash64 is
	// precomputed: expansion appends the same few events to thousands of
	// nodes, so each is hashed once per search (trace.AppendPrehashed).
	cands []candSet
	// thm1 is true when the Theorem 1 fast path is active: the problem
	// requested it (independent supports) and the induction base
	// f(⊥) ⊑ g(⊥) holds. Candidates on channels outside fsupp are then
	// admitted without evaluation (see Problem.Thm1).
	thm1 bool
	// fanout is the total alphabet size across channels — the exact
	// capacity an expanding node's son list can need.
	fanout int
	fsupp  trace.ChanSet
	// sonBuf is the reusable son-slot buffer of the calling goroutine
	// (the BFS loop's worker 0, Sample, CheckInduction): capacity fanout,
	// so expand never reallocates, and the consumer copies the sons out
	// before the next expand reuses the slots. Spawned workers allocate
	// their own.
	sonBuf []trace.Trace
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

// newSearch builds the shared search state. single promises the caller
// drives the search from one goroutine (a one-worker Enumerate, Sample,
// CheckInduction), letting the evaluator memo skip its locks; searches
// with several workers, and checkpoints (which may resume with several),
// must pass false.
func newSearch(p Problem, single bool) *search {
	s := &search{
		p: p,
		e: desc.NewEvaluatorOpts(p.D, desc.EvalOptions{
			Memoize:        p.Memoize,
			SingleThreaded: single,
		}),
		cands: make([]candSet, 0, len(p.Channels)),
	}
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
	s.sonBuf = make([]trace.Trace, 0, s.fanout)
	if p.Thm1 && p.Prune && !p.D.F.Omega {
		// Induction base for the fast path's invariant. If it fails, the
		// root has no sons at all (f(⊥) ⊑ f(v) ⊑ g(⊥) for any admitted
		// v), so falling back to the full edge check costs nothing. The
		// F.Omega re-check guards callers that set Thm1 by hand on an
		// ω-approximation left side, for which auto-admit is unsound.
		s.thm1 = s.e.F(trace.Empty).Leq(s.e.G(trace.Empty))
		s.fsupp = p.D.F.Support
		if s.thm1 {
			for i := range s.cands {
				s.cands[i].auto = !s.fsupp.Has(s.cands[i].ch)
			}
		}
	}
	return s
}

// Enumerate explores the Section 3.3 tree breadth-first to the problem's
// bounds and classifies every visited node, with p.Workers workers (see
// loop). One memoized evaluator backs the whole search (see
// Problem.Memoize), so f and g are applied at most once per distinct
// trace; Result.Stats accounts for every node and edge.
//
// The context is checked once per visited node: cancellation or an
// expired deadline stops the search with Truncated and Canceled set, so
// adversarial problems (wide alphabets, deep probes) cannot run
// unbounded when the caller holds a deadline.
func Enumerate(ctx context.Context, p Problem) Result {
	workers := workerCount(p.Workers)
	// A lone worker runs on the calling goroutine, so the evaluator may
	// skip its memo locks.
	s := newSearch(p, workers == 1)
	var res Result
	s.loop(ctx, &res, []trace.Trace{root}, workers, nil)
	return res
}

// workerCount resolves a Workers setting: 0 or 1 is one worker on the
// calling goroutine, a negative value is GOMAXPROCS.
func workerCount(w int) int {
	if w < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(w, 1)
}

// classify decides the limit condition at a node, with the full
// smoothness re-check the unpruned ablation requires.
func (s *search) classify(t trace.Trace, st *SearchStats) bool {
	st.LimitChecks++
	isSolution := s.e.LimitOK(t)
	if s.p.Prune {
		// With pruning, every node is reachable only through smooth
		// edges, so the limit condition alone decides.
		return isSolution
	}
	if isSolution {
		// Without pruning, re-check the full smoothness condition.
		isSolution = s.p.D.IsSmoothFinite(t) == nil
	}
	return isSolution
}

// expand generates the smooth sons of u. g(u) is evaluated at most once
// per node — not once per candidate, and not at all when the Theorem 1
// fast path admits every candidate — and each rejected candidate is a
// whole subtree of the unpruned tree cut before any of it is expanded.
// Each son is an O(1) persistent extension sharing u's spine.
//
// dst, when non-nil, supplies the son slots (a reusable buffer of
// capacity fanout); callers that retain the returned slice past the
// next expand — the resume frontier of a capture — must pass nil.
func (s *search) expand(u trace.Trace, st *SearchStats, dst []trace.Trace) []trace.Trace {
	sons := dst
	lvl := st.level(u.Len() + 1)
	var gu fn.Tuple
	guReady := false
	for ci := range s.cands {
		// Fast path (Theorem 1): a channel outside supp(f) means
		// f(u·e) = f(u), and f(u) ⊑ g(u) holds at every admitted node, so
		// the edge condition f(v) ⊑ g(u) is guaranteed — admit without
		// evaluating.
		c := &s.cands[ci]
		auto := c.auto
		for i, e := range c.es {
			v := u.AppendPrehashed(e, c.hs[i])
			st.EdgesChecked++
			if s.p.Prune {
				if auto {
					st.Thm1AutoEdges++
				} else {
					if !guReady {
						gu = s.e.G(u)
						guReady = true
					}
					if !s.e.F(v).Leq(gu) {
						st.SubtreesPruned++
						lvl.Pruned++
						continue
					}
				}
			}
			st.EdgesKept++
			if sons == nil {
				sons = make([]trace.Trace, 0, s.fanout)
			}
			sons = append(sons, v)
		}
	}
	return sons
}

// hasSon reports whether a depth-bound node has a smooth son, stopping at
// the first witness. Failed candidates are pruned subtrees like expand's;
// the witness is counted separately since it is never enqueued. A
// Theorem-1 auto-admitted candidate is an immediate witness.
func (s *search) hasSon(u trace.Trace, st *SearchStats) bool {
	lvl := st.level(u.Len() + 1)
	var gu fn.Tuple
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
				gu = s.e.G(u)
				guReady = true
			}
			if s.e.F(v).Leq(gu) {
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
// step along its out-edges, sharing one memoized evaluator — there is no
// second Enumerate pass.
func CheckInduction(ctx context.Context, p Problem, phi func(trace.Trace) bool) error {
	if !phi(trace.Empty) {
		return errors.New("solver: induction base φ(⊥) fails")
	}
	s := newSearch(p, true)
	var st SearchStats
	queue := []trace.Trace{root}
	nodes := 0
	var unsound error
	for len(queue) > 0 {
		u := queue[0]
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
		if unsound == nil && s.classify(u, &st) && !phi(u) {
			unsound = fmt.Errorf("solver: induction rule unsound?! φ fails on smooth solution %s", u)
		}
		if u.Len() >= p.MaxDepth {
			continue
		}
		for _, v := range s.expand(u, &st, s.sonBuf[:0]) {
			if err := p.D.InductionPremise(phi, u, v); err != nil {
				return err
			}
			queue = append(queue, v)
		}
	}
	return unsound
}
