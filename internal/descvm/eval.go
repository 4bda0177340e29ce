package descvm

import (
	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
	"smoothproc/internal/value"
)

// frame is the mutable state of one evaluation: the register file, the
// per-register scratch buffers the specialized opcodes write through,
// and the incrementally maintained channel histories of a cached base
// trace. Frames live in the Prog's sync.Pool: Eval takes one, runs, and
// returns it, so a goroutine repeatedly evaluating neighbours of the
// same parent — the breadth-first search's access pattern — keeps
// getting its own warm frame back and extends the histories in O(1)
// instead of re-walking the trace spine.
type frame struct {
	regs     []seq.Seq
	scratch  []seq.Seq
	chanVals []seq.Seq     // per channel-table index, history of base(+push)
	events   []trace.Event // reusable buffer for full spine loads

	base      trace.Trace // the trace whose histories chanVals holds
	baseValid bool
}

func newFrame(p *Prog) *frame {
	fr := &frame{}
	fr.init(p, make([]seq.Seq, p.frameSize()))
	return fr
}

// frameSize is the number of sequence slots a frame of p holds: its
// registers, their scratch buffers and the channel histories.
func (p *Prog) frameSize() int { return 2*p.nregs + len(p.chans) }

// init carves the frame's three tables from one backing array of
// p.frameSize() slots, so a frame costs one allocation besides itself.
func (fr *frame) init(p *Prog, backing []seq.Seq) {
	n := p.nregs
	fr.regs = backing[:n:n]
	fr.scratch = backing[n : 2*n : 2*n]
	fr.chanVals = backing[2*n:]
}

// load rebuilds the frame's channel histories for base: one walk of the
// spine, distributing events to per-channel buffers.
func (p *Prog) load(fr *frame, base trace.Trace) {
	for i := range fr.chanVals {
		fr.chanVals[i] = fr.chanVals[i][:0]
	}
	fr.events = base.AppendEvents(fr.events[:0])
	for _, e := range fr.events {
		if ci := p.chanIdx(e.Ch); ci >= 0 {
			fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
		}
	}
	fr.base = base
	fr.baseValid = true
}

// Eval applies the compiled function to t, returning a Tuple the caller
// owns (components never alias frame state). It is safe for concurrent
// use; see TestEvalConcurrent for the race check.
//
// The frame cache keys on parent(t): a full spine walk happens only
// when the parent changes, so evaluating all sons u·e of one node, or
// sibling nodes u1, u2 of one parent in BFS order, costs one walk per
// parent group plus an O(1) push/pop per evaluation.
func (p *Prog) Eval(t trace.Trace) fn.Tuple {
	fr := p.frames.Get().(*frame)
	out := p.evalFrame(fr, t)
	p.frames.Put(fr)
	return out
}

// Session is a single-goroutine evaluation handle owning two dedicated
// frames. A sequential search evaluating one side thousands of times
// skips the pool round-trip per call, and — unlike pooled frames, which
// the GC clears between cycles — its base caches survive the whole
// search. Two frames because the breadth-first search alternates
// between two bases per node: the limit check evaluates at the node
// (base = its parent's level) and the expansion evaluates the node's
// sons (base = the node); with a single frame each alternation would
// re-walk a spine, with two both bases stay warm. Not safe for
// concurrent use; concurrent callers use Prog.Eval.
type Session struct {
	p        *Prog
	fr, prev *frame // most- and second-most-recently used
	frames   [2]frame
}

// NewSession returns a fresh single-goroutine handle for p. Both frames
// live in the Session and share one backing array, so a session costs
// two allocations however many registers and channels p has.
func (p *Prog) NewSession() *Session {
	s := &Session{p: p}
	n := p.frameSize()
	backing := make([]seq.Seq, 2*n)
	s.frames[0].init(p, backing[:n:n])
	s.frames[1].init(p, backing[n:])
	s.fr, s.prev = &s.frames[0], &s.frames[1]
	return s
}

// Eval is Prog.Eval through the session's dedicated frames.
//
// The search's bases drift by O(1) edits — a node's expansion base
// extends its limit-check base by one event, and consecutive nodes of
// one level are spine siblings — so before paying a full load the
// session tries to adopt the new base by an O(1) push/pop on a frame it
// already has. prev is tried first for adoption: in the steady BFS
// rhythm fr holds the parent-level base the very next evaluation needs
// again, and morphing prev instead keeps it parked there.
func (s *Session) Eval(t trace.Trace) fn.Tuple {
	n := t.Len()
	parent := trace.Empty
	if n > 0 {
		parent = t.Take(n - 1)
	}
	switch {
	case s.fr.matches(parent, n-1):
	case s.prev.matches(parent, n-1), s.prev.adopt(s.p, parent, n-1):
		s.fr, s.prev = s.prev, s.fr
	case s.fr.adopt(s.p, parent, n-1):
	default:
		s.fr, s.prev = s.prev, s.fr
		s.p.load(s.fr, parent)
	}
	return s.p.execAt(s.fr, t, n)
}

// matches reports whether the frame's cached base is parent (whose
// length the caller supplies as n; n < 0 means parent is ⊥).
func (fr *frame) matches(parent trace.Trace, n int) bool {
	if n < 0 {
		n = 0
	}
	return fr.baseValid && fr.base.Len() == n && parent.Equal(fr.base)
}

// adopt rebases the frame onto parent when an O(1) edit gets it there:
// parent extends the base by one event, or is its spine sibling (same
// parent, different last event). The prefix comparisons are pointer
// hits on shared spines, so a failed adopt is cheap too. n is parent's
// length as in matches.
func (fr *frame) adopt(p *Prog, parent trace.Trace, n int) bool {
	if !fr.baseValid || n <= 0 {
		return false
	}
	bn := fr.base.Len()
	switch bn {
	case n - 1:
		if !parent.Take(n - 1).Equal(fr.base) {
			return false
		}
	case n:
		if !parent.Take(n - 1).Equal(fr.base.Take(n - 1)) {
			return false
		}
		old := fr.base.Last()
		if ci := p.chanIdx(old.Ch); ci >= 0 {
			vs := fr.chanVals[ci]
			fr.chanVals[ci] = vs[:len(vs)-1]
		}
	default:
		return false
	}
	e := parent.Last()
	if ci := p.chanIdx(e.Ch); ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], e.Val)
	}
	fr.base = parent
	return true
}

func (p *Prog) evalFrame(fr *frame, t trace.Trace) fn.Tuple {
	n := t.Len()
	parent := trace.Empty
	if n > 0 {
		parent = t.Take(n - 1)
	}
	if !fr.matches(parent, n-1) {
		p.load(fr, parent)
	}
	return p.execAt(fr, t, n)
}

// execAt runs the program for t on a frame whose base is parent(t):
// push t's last event, execute, pop.
func (p *Prog) execAt(fr *frame, t trace.Trace, n int) fn.Tuple {
	if p.soloChan >= 0 {
		// Single channel projection: the answer is the cached history
		// (plus t's own last event when it lands on the channel), read
		// out directly — no push/pop, no instruction dispatch.
		hist := fr.chanVals[p.soloChan]
		extra := 0
		var lastVal value.Value
		if n > 0 {
			if last := t.Last(); last.Ch == p.chans[p.soloChan] {
				lastVal = last.Val
				extra = 1
			}
		}
		backing := make([]value.Value, len(hist)+extra)
		copy(backing, hist)
		if extra == 1 {
			backing[len(hist)] = lastVal
		}
		return fn.Tuple{seq.Seq(backing)}
	}
	if n == 0 {
		return p.exec(fr, 0)
	}
	last := t.Last()
	ci := p.chanIdx(last.Ch)
	if ci >= 0 {
		fr.chanVals[ci] = append(fr.chanVals[ci], last.Val)
	}
	out := p.exec(fr, n)
	if ci >= 0 {
		fr.chanVals[ci] = fr.chanVals[ci][:len(fr.chanVals[ci])-1]
	}
	return out
}

// exec runs the instruction sequence against the frame's loaded
// histories and copies the output registers into a fresh Tuple. rawLen
// is the unprojected input length |t|, which opOmega's approximation
// depth depends on (fn.OmegaConstFn semantics).
func (p *Prog) exec(fr *frame, rawLen int) fn.Tuple {
	regs := fr.regs
	for _, ins := range p.code {
		switch ins.op {
		case opChan:
			regs[ins.dst] = seq.Seq(fr.chanVals[ins.a])
		case opConst:
			regs[ins.dst] = p.consts[ins.a]
		case opOmega:
			period := p.consts[ins.a]
			if len(period) == 0 {
				regs[ins.dst] = seq.Empty
				continue
			}
			n := rawLen + fn.OmegaPad
			buf := fr.scratch[ins.dst]
			if cap(buf) < n {
				buf = make([]value.Value, n)
			}
			buf = buf[:n]
			for i := range buf {
				buf[i] = period[i%len(period)]
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opFilter:
			pred := p.preds[ins.a]
			buf := fr.scratch[ins.dst][:0]
			for _, v := range regs[ins.b] {
				if pred(v) {
					buf = append(buf, v)
				}
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opMap:
			f := p.maps[ins.a]
			buf := fr.scratch[ins.dst][:0]
			for _, v := range regs[ins.b] {
				buf = append(buf, f(v))
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opTakeWhile:
			pred := p.preds[ins.a]
			src := regs[ins.b]
			n := 0
			for n < len(src) && pred(src[n]) {
				n++
			}
			// Aliases src within this run; the output copy below keeps
			// the alias from escaping.
			regs[ins.dst] = src[:n]
		case opPrepend:
			buf := fr.scratch[ins.dst][:0]
			buf = append(buf, p.consts[ins.a]...)
			buf = append(buf, regs[ins.b]...)
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opZip:
			f := p.zips[ins.a]
			a, b := regs[ins.b], regs[ins.c]
			n := min(len(a), len(b))
			buf := fr.scratch[ins.dst][:0]
			for i := 0; i < n; i++ {
				buf = append(buf, f(a[i], b[i]))
			}
			fr.scratch[ins.dst] = buf
			regs[ins.dst] = seq.Seq(buf)
		case opSeqCall:
			regs[ins.dst] = p.seqfns[ins.a].Apply(regs[ins.b])
		case opBiCall:
			regs[ins.dst] = p.bifns[ins.a].Apply(regs[ins.b], regs[ins.c])
		}
	}

	// Copy the outputs into one fresh backing array: callers (the search,
	// which hands f(v) from v's admitting edge to v's limit check, and a
	// checkpoint's retained sons) keep the Tuple indefinitely, while
	// every non-stable register aliases frame state that the next Eval
	// overwrites. Table constants (stable registers) are immutable and
	// shared, exactly as the interpreter's ConstTraceFn shares its k.
	total := 0
	for _, r := range p.outs {
		if !p.stable[r] {
			total += len(regs[r])
		}
	}
	out := make(fn.Tuple, len(p.outs))
	backing := make([]value.Value, total)
	o := 0
	for i, r := range p.outs {
		v := regs[r]
		if p.stable[r] {
			out[i] = v
			continue
		}
		dst := backing[o : o+len(v) : o+len(v)]
		copy(dst, v)
		out[i] = seq.Seq(dst)
		o += len(v)
	}
	return out
}
