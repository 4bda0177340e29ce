package desc

import (
	"sync"
	"time"

	"smoothproc/internal/descvm"
	"smoothproc/internal/fn"
	"smoothproc/internal/metrics"
	"smoothproc/internal/trace"
)

// evalCacheLimit caps the number of memoized tuples per side. The tree
// search visits every node (and candidate son) once per distinct trace,
// so the cache grows with the explored tree; past the cap the evaluator
// keeps serving hits from what it has and stops inserting, degrading to
// direct evaluation rather than growing without bound.
const evalCacheLimit = 1 << 18

// evalShardBits selects the number of lock stripes in the memo. Sixteen
// shards keep the worst case — every worker of a wide parallel search
// missing at once — spread across independent mutexes, while costing a
// one-worker search nothing but a mask on the hash it already has.
const evalShardBits = 4

// evalShards is the number of lock-striped memo buckets.
const evalShards = 1 << evalShardBits

// evalShardLimit is each shard's per-side entry budget, so the whole
// evaluator still tops out at evalCacheLimit entries per side.
const evalShardLimit = evalCacheLimit / evalShards

// EvalStats counts what a description's two sides cost through an
// Evaluator: underlying TraceFn applications, memo hits, in-flight
// deduplication waits, and the time spent inside f and g. Safe for
// concurrent use; read it via Snapshot.
type EvalStats struct {
	FApplies metrics.Counter
	GApplies metrics.Counter
	FHits    metrics.Counter
	GHits    metrics.Counter
	// InflightWaits counts lookups that found another goroutine already
	// applying the side to the same trace and waited for its result
	// instead of re-applying. Scheduling-dependent, hence excluded from
	// deterministic fingerprints.
	InflightWaits metrics.Counter
	FTime         metrics.Timer
	GTime         metrics.Timer
}

// Snapshot reads the stats into a plain value.
func (s *EvalStats) Snapshot() EvalSnapshot {
	return EvalSnapshot{
		FApplies:      s.FApplies.Load(),
		GApplies:      s.GApplies.Load(),
		FHits:         s.FHits.Load(),
		GHits:         s.GHits.Load(),
		InflightWaits: s.InflightWaits.Load(),
		FNanos:        s.FTime.TotalNanos(),
		GNanos:        s.GTime.TotalNanos(),
	}
}

// EvalSnapshot is a copyable point-in-time view of EvalStats.
type EvalSnapshot struct {
	// FApplies and GApplies count underlying applications of the two
	// sides — with memoization on, these are the cache misses.
	FApplies int64 `json:"f_applies"`
	GApplies int64 `json:"g_applies"`
	// FHits and GHits count lookups served from the memo. A lookup that
	// waited for an in-flight application of the same trace counts as a
	// hit (it never applied the side itself), so hits + applies always
	// equals total lookups.
	FHits int64 `json:"f_hits"`
	GHits int64 `json:"g_hits"`
	// InflightWaits counts the lookups that waited out a concurrent
	// application of the same trace — the work the singleflight dedup
	// saved. Scheduling-dependent: zero in one-worker searches,
	// timing-dependent with several workers (not part of any
	// fingerprint).
	InflightWaits int64 `json:"inflight_waits,omitempty"`
	// FNanos and GNanos are the wall-clock nanoseconds spent inside the
	// underlying applications.
	FNanos int64 `json:"f_nanos"`
	GNanos int64 `json:"g_nanos"`
}

// CacheHits returns the total memo hits across both sides.
func (s EvalSnapshot) CacheHits() int64 { return s.FHits + s.GHits }

// CacheMisses returns the total underlying applications across both
// sides (every miss is an application, and vice versa).
func (s EvalSnapshot) CacheMisses() int64 { return s.FApplies + s.GApplies }

// memoEntry is one cached application: the trace it was computed for and
// the resulting tuple. Entries in the same bucket share a (hash, length)
// Key; the trace is kept so lookups can confirm real equality.
type memoEntry struct {
	t trace.Trace
	v fn.Tuple
}

// memoSide is one shard's slice of one side's memo, keyed by the O(1)
// trace.Key. The primary map holds one entry per key — the
// overwhelmingly common case — and overflow (allocated lazily) holds the
// extras that appear only on a 64-bit hash collision between distinct
// traces. Every lookup confirms Trace.Equal before trusting a hit, so
// collisions cost a miss, never a wrong answer (the equality fallback).
// Retained traces are persistent spines that share prefixes across
// entries, so the memo's footprint is O(distinct traces), not O(Σ len).
type memoSide struct {
	primary  map[trace.Key]memoEntry
	overflow map[trace.Key][]memoEntry
	entries  int
	// inflight marks traces whose application is currently running on
	// some goroutine, matched by key with the same equality fallback as
	// the memo. A second goroutine asking for an in-flight trace waits on
	// the shard's cond instead of re-applying — this is what makes
	// "applied at most once per distinct trace" true under races. A
	// plain slice, not a map: it holds at most one entry per concurrent
	// applier, and its capacity is reused across claims, so the miss
	// path stays allocation-free in steady state.
	inflight []inflightClaim
}

// inflightClaim is one in-flight application: the trace being applied
// and its precomputed key.
type inflightClaim struct {
	k trace.Key
	t trace.Trace
}

// lookup finds t's entry. present reports whether the key itself is
// taken (by t's entry or a colliding trace's) — callers that go on to
// insert under the same lock, or on the same goroutine, can reuse it to
// skip insert's probe.
func (m *memoSide) lookup(t trace.Trace, k trace.Key) (v fn.Tuple, ok, present bool) {
	e, taken := m.primary[k]
	if !taken {
		return nil, false, false
	}
	if e.t.Equal(t) {
		return e.v, true, true
	}
	for _, o := range m.overflow[k] {
		if o.t.Equal(t) {
			return o.v, true, true
		}
	}
	return nil, false, true
}

func (m *memoSide) insert(t trace.Trace, k trace.Key, v fn.Tuple) {
	_, taken := m.primary[k]
	m.insertKnown(t, k, v, taken)
}

// insertKnown is insert with the key probe already done: present is
// lookup's report of whether k was taken, which must still hold.
func (m *memoSide) insertKnown(t trace.Trace, k trace.Key, v fn.Tuple, present bool) {
	if m.entries >= evalShardLimit {
		return
	}
	if m.primary == nil {
		m.primary = make(map[trace.Key]memoEntry)
	}
	if !present {
		m.primary[k] = memoEntry{t: t, v: v}
	} else {
		if m.overflow == nil {
			m.overflow = make(map[trace.Key][]memoEntry)
		}
		m.overflow[k] = append(m.overflow[k], memoEntry{t: t, v: v})
	}
	m.entries++
}

// claimed reports whether an application of t is already in flight.
func (m *memoSide) claimed(t trace.Trace, k trace.Key) bool {
	for _, c := range m.inflight {
		if c.k == k && c.t.Equal(t) {
			return true
		}
	}
	return false
}

// claim marks t in flight; the caller owns the application.
func (m *memoSide) claim(t trace.Trace, k trace.Key) {
	m.inflight = append(m.inflight, inflightClaim{k: k, t: t})
}

// unclaim removes t's in-flight mark.
func (m *memoSide) unclaim(t trace.Trace, k trace.Key) {
	for i, c := range m.inflight {
		if c.k == k && c.t.Equal(t) {
			last := len(m.inflight) - 1
			m.inflight[i] = m.inflight[last]
			m.inflight[last] = inflightClaim{}
			m.inflight = m.inflight[:last]
			return
		}
	}
}

// evalShard is one lock stripe of the memo: both sides' entries for the
// keys that hash into it, one mutex, and one cond for in-flight waiters.
type evalShard struct {
	mu   sync.Mutex
	cond sync.Cond
	f    memoSide
	g    memoSide
}

// Evaluator applies a description's two sides with memoization over
// (hash, length) trace keys, counting applications, hits and evaluation
// time. The memo is sharded into lock-striped buckets selected by the
// trace key's hash, and each shard deduplicates in-flight applications:
// a goroutine that asks for a trace another goroutine is currently
// evaluating waits for that result instead of re-applying. The tree
// search shares one evaluator per search, so f and g are applied at most
// once per distinct trace — even when several workers race on the same
// trace — and the apply/hit counters are deterministic under any worker
// count (see the solver's parity suite and this package's race tests).
//
// Memoization is transparent: TraceFns are pure functions of the trace
// (OmegaConstFn depends only on the trace's length, which the key also
// determines), a cached tuple equals a fresh application, and hash
// collisions are disarmed by the equality fallback in memoSide. The
// at-most-once guarantee holds while the cache accepts inserts; past
// evalCacheLimit entries the evaluator degrades to direct evaluation
// (re-applying rather than growing without bound).
type Evaluator struct {
	d       Description
	memoize bool
	single  bool
	stats   EvalStats
	// sc holds the single-threaded path's counter increments as plain
	// ints (one goroutine, no need for the atomics); Snapshot folds them
	// into the totals.
	sc singleCounts

	// fprog and gprog are the bytecode programs of the two sides, for
	// every side that carries lowerable IR (descvm). They sit strictly
	// below the memo: everything above — keys, claims,
	// counters, insert/lookup — is byte-identical between compiled and
	// interpreted evaluation, which is what keeps search fingerprints
	// equal across the two modes (the differential suite's contract).
	// A side that does not lower falls back to its interpreted Apply.
	fprog *descvm.Prog
	gprog *descvm.Prog
	// fsess and gsess are dedicated single-goroutine VM frames, set only
	// with SingleThreaded: the frame's base cache then survives the whole
	// search instead of cycling through the Prog's pool.
	fsess *descvm.Session
	gsess *descvm.Session

	shards [evalShards]evalShard
}

// EvalOptions configures NewEvaluatorOpts.
type EvalOptions struct {
	// Memoize enables the memo and in-flight dedup; false is the
	// ablation mode (counters and timers still run).
	Memoize bool
	// SingleThreaded promises that F/G/EdgeOK/LimitOK are called from
	// one goroutine only, letting the memo skip its locks and in-flight
	// claims. Counters and lookup/insert logic are unchanged — hits and
	// misses are byte-identical to the concurrent evaluator, which the
	// parity suite checks across worker counts. The default (false) is
	// always safe.
	SingleThreaded bool
}

// NewEvaluator builds an evaluator for d; memoize false disables the
// cache and the in-flight dedup (counters and timers still run), which
// is the ablation mode.
func NewEvaluator(d Description, memoize bool) *Evaluator {
	return NewEvaluatorOpts(d, EvalOptions{Memoize: memoize})
}

// NewEvaluatorOpts builds an evaluator for d with explicit options. Each
// side that carries fn.TraceIR is lowered to descvm bytecode; a side
// without IR (an opaque Go-closure combinator) keeps the interpreter,
// TraceFn.Apply, which also stays the differential oracle.
func NewEvaluatorOpts(d Description, opts EvalOptions) *Evaluator {
	e := &Evaluator{d: d, memoize: opts.Memoize, single: opts.SingleThreaded}
	if p, ok := descvm.Compile(d.F); ok {
		e.fprog = p
		if e.single {
			e.fsess = p.NewSession()
		}
	}
	if p, ok := descvm.Compile(d.G); ok {
		e.gprog = p
		if e.single {
			e.gsess = p.NewSession()
		}
	}
	for i := range e.shards {
		e.shards[i].cond.L = &e.shards[i].mu
	}
	return e
}

// Compiled reports whether both sides run on descvm bytecode.
func (e *Evaluator) Compiled() bool { return e.fprog != nil && e.gprog != nil }

// timedRun applies one side to t through the compiled program when there
// is one, the interpreter otherwise. Only interpreted runs are timed:
// at the paper's spec sizes two time.Now calls cost as much as a whole
// compiled evaluation, so the compiled path reports FNanos/GNanos of
// zero. That asymmetry is parity-safe — the wall-clock fields are
// excluded from fingerprints and zeroed by SearchStats.Deterministic.
func (e *Evaluator) timedRun(t trace.Trace, side fn.TraceFn, g bool, timer *metrics.Timer) fn.Tuple {
	p, sess := e.fprog, e.fsess
	if g {
		p, sess = e.gprog, e.gsess
	}
	if sess != nil {
		return sess.Eval(t)
	}
	if p != nil {
		return p.Eval(t)
	}
	start := time.Now()
	v := side.Apply(t)
	timer.ObserveSince(start)
	return v
}

// Description returns the description being evaluated.
func (e *Evaluator) Description() Description { return e.d }

// singleCounts are the lookup-outcome counters of the single-threaded
// fast path; see Evaluator.sc.
type singleCounts struct {
	fApplies, gApplies, fHits, gHits int64
}

// Stats returns the live atomic stats. With SingleThreaded these miss
// the fast path's increments — use Snapshot, which folds both in.
func (e *Evaluator) Stats() *EvalStats { return &e.stats }

// Snapshot reads the evaluator's stats into a plain value.
func (e *Evaluator) Snapshot() EvalSnapshot {
	s := e.stats.Snapshot()
	s.FApplies += e.sc.fApplies
	s.GApplies += e.sc.gApplies
	s.FHits += e.sc.fHits
	s.GHits += e.sc.gHits
	return s
}

// MemoEntries returns the number of cached applications currently
// retained across both sides — the memory a caller that keeps the
// evaluator alive between searches (a resumable solve session) is
// holding onto. Safe for concurrent use: each shard's lock is taken
// briefly, so the count is a consistent per-shard snapshot.
func (e *Evaluator) MemoEntries() int {
	n := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		n += sh.f.entries + sh.g.entries
		sh.mu.Unlock()
	}
	return n
}

// shardFor returns the lock stripe owning k.
func (e *Evaluator) shardFor(k trace.Key) *evalShard {
	return &e.shards[uint64(k)&(evalShards-1)]
}

func (e *Evaluator) apply(t trace.Trace, side fn.TraceFn, g bool,
	hits *metrics.Counter, applies *metrics.Counter, timer *metrics.Timer) fn.Tuple {
	if !e.memoize {
		applies.Inc()
		return e.timedRun(t, side, g, timer)
	}
	key := t.Key()
	sh := e.shardFor(key)
	cache := &sh.f
	if g {
		cache = &sh.g
	}
	if e.single {
		// One-goroutine promise: the same lookup → count → apply → insert
		// sequence as below with the locks and in-flight claims elided.
		// Hit/apply counts are decided by the same code, so one-worker
		// searches produce the exact fingerprints the locked path would.
		v, ok, present := cache.lookup(t, key)
		if ok {
			if g {
				e.sc.gHits++
			} else {
				e.sc.fHits++
			}
			return v
		}
		if g {
			e.sc.gApplies++
		} else {
			e.sc.fApplies++
		}
		v = e.timedRun(t, side, g, timer)
		cache.insertKnown(t, key, v, present)
		return v
	}
	sh.mu.Lock()
	for {
		if v, ok, _ := cache.lookup(t, key); ok {
			sh.mu.Unlock()
			hits.Inc()
			return v
		}
		if !cache.claimed(t, key) {
			break
		}
		// Another goroutine is applying this side to this exact trace;
		// wait for its insert rather than double-applying.
		e.stats.InflightWaits.Inc()
		sh.cond.Wait()
	}
	cache.claim(t, key)
	sh.mu.Unlock()

	applies.Inc()
	inserted := false
	var v fn.Tuple
	defer func() {
		// Runs on success and on a panicking side alike: the claim must
		// be released either way or waiters would sleep forever.
		sh.mu.Lock()
		cache.unclaim(t, key)
		if inserted {
			cache.insert(t, key, v)
		}
		sh.cond.Broadcast()
		sh.mu.Unlock()
	}()
	v = e.timedRun(t, side, g, timer)
	inserted = true
	return v
}

// F applies the description's left side to t.
func (e *Evaluator) F(t trace.Trace) fn.Tuple {
	return e.apply(t, e.d.F, false, &e.stats.FHits, &e.stats.FApplies, &e.stats.FTime)
}

// G applies the description's right side to t.
func (e *Evaluator) G(t trace.Trace) fn.Tuple {
	return e.apply(t, e.d.G, true, &e.stats.GHits, &e.stats.GApplies, &e.stats.GTime)
}

// EdgeOK is Description.EdgeOK through the memo: f(v) ⊑ g(u).
func (e *Evaluator) EdgeOK(u, v trace.Trace) bool {
	return e.F(v).Leq(e.G(u))
}

// LimitOK is Description.LimitOK through the memo: f(t) = g(t).
func (e *Evaluator) LimitOK(t trace.Trace) bool {
	return e.F(t).Equal(e.G(t))
}
