// Checkpoint serialization. A checkpoint is exactly the state the §3.3
// chain view calls a chain element — the classified BFS prefix, the
// retained frontier, the pending queue, each retained node with its f
// tuple — so a decoded checkpoint resumes to a solve byte-identical to
// one that never left memory, deterministic fingerprint (evaluator
// hit/apply counters included) and all. The blob rides on the trace
// codec: every retained trace is a reference into one shared node pool,
// so the prefix sharing between solutions, frontier sons and visited
// lists costs one spine on disk, exactly as in memory.
//
// What is NOT serialized: the Problem's function values (the description
// sides and callbacks). DecodeCheckpoint takes a caller-supplied Problem
// — rebuilt from the stored spec source — and verifies the stored search
// flags against it, overriding only the bounds the blob carries. The
// search machinery is rebuilt by re-running newSearch; the counters
// continue from the stored Result's, since only a search from the root
// counts the constructor's Theorem 1 induction-base evaluations.
package solver

import (
	"fmt"

	"time"

	"smoothproc/internal/fn"
	"smoothproc/internal/seq"
	"smoothproc/internal/trace"
)

// checkpointVersion guards the body layout; bump on any change.
const checkpointVersion = 3

// Encode serializes the checkpoint into one self-verifying blob (see the
// trace codec for the integrity story). The checkpoint is not locked:
// callers serialize Encode against Resume exactly as they serialize
// resumes against each other.
func (cp *Checkpoint) Encode() ([]byte, error) {
	if cp == nil || cp.s == nil {
		return nil, fmt.Errorf("solver: encode of an empty checkpoint")
	}
	if cp.broken {
		return nil, errBroken
	}
	e := trace.NewEncoder()
	e.Uvarint(checkpointVersion)

	// Search configuration: bounds are restored from the blob, flags are
	// verified against the decoder's Problem.
	p := cp.s.p
	e.Varint(int64(p.MaxDepth))
	e.Varint(int64(p.MaxNodes))
	e.Bool(p.Prune)
	e.Bool(p.Memoize)
	e.Bool(p.CollectVisited)
	e.Bool(p.Thm1)

	encodeResult(e, cp.done)

	e.Uvarint(uint64(len(cp.frontier)))
	for _, fe := range cp.frontier {
		e.Trace(fe.node)
		encodeSons(e, fe.sons)
	}
	encodeSons(e, cp.pending)
	e.Varint(int64(cp.resumes))
	e.Bool(cp.finaled)
	return e.Bytes(), nil
}

// DecodeCheckpoint rebuilds a checkpoint from Encode's blob. p must be
// the same problem the capture ran (sides rebuilt from the same spec,
// same Prune/Memoize/Thm1/CollectVisited configuration — the
// stored flags are verified); the blob's captured bounds override
// p.MaxDepth/p.MaxNodes. All corruption failures wrap trace.ErrCorrupt.
func DecodeCheckpoint(data []byte, p Problem) (*Checkpoint, error) {
	d, err := trace.NewDecoder(data)
	if err != nil {
		return nil, err
	}
	cp, err := decodeCheckpoint(d, p)
	if err != nil {
		return nil, fmt.Errorf("solver: decode checkpoint: %w", err)
	}
	return cp, nil
}

func decodeCheckpoint(d *trace.Decoder, p Problem) (*Checkpoint, error) {
	v, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if v != checkpointVersion {
		return nil, fmt.Errorf("checkpoint version %d, this build reads %d: %w", v, checkpointVersion, trace.ErrCorrupt)
	}
	maxDepth, err := d.Varint()
	if err != nil {
		return nil, err
	}
	maxNodes, err := d.Varint()
	if err != nil {
		return nil, err
	}
	var flags [4]bool
	for i := range flags {
		if flags[i], err = d.Bool(); err != nil {
			return nil, err
		}
	}
	if flags[0] != p.Prune || flags[1] != p.Memoize || flags[2] != p.CollectVisited || flags[3] != p.Thm1 {
		return nil, fmt.Errorf("checkpoint was captured with prune=%t memoize=%t visited=%t thm1=%t, caller passed prune=%t memoize=%t visited=%t thm1=%t",
			flags[0], flags[1], flags[2], flags[3],
			p.Prune, p.Memoize, p.CollectVisited, p.Thm1)
	}
	p.MaxDepth = int(maxDepth)
	p.MaxNodes = int(maxNodes)
	p.OnSolution = nil

	res, err := decodeResult(d)
	if err != nil {
		return nil, err
	}

	nf, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nf > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("frontier claims %d entries: %w", nf, trace.ErrCorrupt)
	}
	frontier := make([]frontierEntry, 0, nf)
	for i := uint64(0); i < nf; i++ {
		node, err := d.Trace()
		if err != nil {
			return nil, err
		}
		sons, err := decodeSons(d)
		if err != nil {
			return nil, err
		}
		frontier = append(frontier, frontierEntry{node: node, sons: sons})
	}
	pending, err := decodeSons(d)
	if err != nil {
		return nil, err
	}
	resumes, err := d.Varint()
	if err != nil {
		return nil, err
	}
	finaled, err := d.Bool()
	if err != nil {
		return nil, err
	}

	if err := d.Done(); err != nil {
		return nil, err
	}
	tuples := countTuples(pending)
	for _, fe := range frontier {
		tuples += countTuples(fe.sons)
	}
	return &Checkpoint{
		s:        newSearch(p),
		done:     res,
		frontier: frontier,
		pending:  pending,
		tuples:   tuples,
		resumes:  int(resumes),
		finaled:  finaled,
	}, nil
}

func encodeTraces(e *trace.Encoder, ts []trace.Trace) {
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Trace(t)
	}
}

func decodeTraces(d *trace.Decoder) ([]trace.Trace, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each encoded trace costs ≥ 9 bytes (ref + fixed64 key).
	if n > uint64(d.Remaining()/9)+1 {
		return nil, fmt.Errorf("trace list claims %d entries in %d bytes: %w", n, d.Remaining(), trace.ErrCorrupt)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]trace.Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := d.Trace()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

func encodeResult(e *trace.Encoder, r Result) {
	encodeTraces(e, r.Solutions)
	encodeTraces(e, r.Frontier)
	encodeTraces(e, r.DeadLeaves)
	encodeTraces(e, r.Visited)
	e.Varint(int64(r.Nodes))
	e.Bool(r.Truncated)
	e.Bool(r.Canceled)
	encodeStats(e, r.Stats)
}

func decodeResult(d *trace.Decoder) (Result, error) {
	var r Result
	var err error
	if r.Solutions, err = decodeTraces(d); err != nil {
		return r, err
	}
	if r.Frontier, err = decodeTraces(d); err != nil {
		return r, err
	}
	if r.DeadLeaves, err = decodeTraces(d); err != nil {
		return r, err
	}
	if r.Visited, err = decodeTraces(d); err != nil {
		return r, err
	}
	nodes, err := d.Varint()
	if err != nil {
		return r, err
	}
	r.Nodes = int(nodes)
	if r.Truncated, err = d.Bool(); err != nil {
		return r, err
	}
	if r.Canceled, err = d.Bool(); err != nil {
		return r, err
	}
	if r.Stats, err = decodeStats(d); err != nil {
		return r, err
	}
	return r, nil
}

func encodeStats(e *trace.Encoder, s SearchStats) {
	for _, n := range []int{
		s.Visited, s.Interior, s.Frontier, s.Dead, s.Closed, s.Skipped,
		s.Solutions, s.LimitChecks,
		s.EdgesChecked, s.EdgesKept, s.SubtreesPruned, s.FrontierWitnesses,
		s.RetainedSons, s.Thm1AutoEdges, s.Workers,
	} {
		e.Varint(int64(n))
	}
	e.Bool(s.Thm1FastPath)
	e.Bool(s.CompiledEval)
	e.Varint(s.Steals)
	e.Varint(s.IdleWaits)
	e.Varint(int64(s.Elapsed))
	e.Uvarint(uint64(len(s.Levels)))
	for _, l := range s.Levels {
		e.Varint(int64(l.Depth))
		e.Varint(int64(l.Nodes))
		e.Varint(int64(l.Solutions))
		e.Varint(int64(l.Pruned))
	}
	for _, n := range []int64{
		s.Eval.FApplies, s.Eval.GApplies, s.Eval.FHits, s.Eval.GHits,
		s.Eval.FNanos, s.Eval.GNanos,
	} {
		e.Varint(n)
	}
}

func decodeStats(d *trace.Decoder) (SearchStats, error) {
	var s SearchStats
	ints := []*int{
		&s.Visited, &s.Interior, &s.Frontier, &s.Dead, &s.Closed, &s.Skipped,
		&s.Solutions, &s.LimitChecks,
		&s.EdgesChecked, &s.EdgesKept, &s.SubtreesPruned, &s.FrontierWitnesses,
		&s.RetainedSons, &s.Thm1AutoEdges, &s.Workers,
	}
	for _, p := range ints {
		n, err := d.Varint()
		if err != nil {
			return s, err
		}
		*p = int(n)
	}
	var err error
	if s.Thm1FastPath, err = d.Bool(); err != nil {
		return s, err
	}
	if s.CompiledEval, err = d.Bool(); err != nil {
		return s, err
	}
	if s.Steals, err = d.Varint(); err != nil {
		return s, err
	}
	if s.IdleWaits, err = d.Varint(); err != nil {
		return s, err
	}
	el, err := d.Varint()
	if err != nil {
		return s, err
	}
	s.Elapsed = time.Duration(el)
	nl, err := d.Uvarint()
	if err != nil {
		return s, err
	}
	if nl > uint64(d.Remaining())+1 {
		return s, fmt.Errorf("levels claim %d entries: %w", nl, trace.ErrCorrupt)
	}
	s.Levels = make([]LevelStats, 0, nl)
	for i := uint64(0); i < nl; i++ {
		var l LevelStats
		for _, p := range []*int{&l.Depth, &l.Nodes, &l.Solutions, &l.Pruned} {
			n, err := d.Varint()
			if err != nil {
				return s, err
			}
			*p = int(n)
		}
		s.Levels = append(s.Levels, l)
	}
	evals := []*int64{
		&s.Eval.FApplies, &s.Eval.GApplies, &s.Eval.FHits, &s.Eval.GHits,
		&s.Eval.FNanos, &s.Eval.GNanos,
	}
	for _, p := range evals {
		if *p, err = d.Varint(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// encodeSons writes retained nodes with their f tuples, a presence flag
// before each tuple (nil: no edge check evaluated it).
func encodeSons(e *trace.Encoder, ns []son) {
	e.Uvarint(uint64(len(ns)))
	for _, v := range ns {
		e.Trace(v.t)
		e.Bool(v.f != nil)
		if v.f != nil {
			encodeTuple(e, v.f)
		}
	}
}

func decodeSons(d *trace.Decoder) ([]son, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each encoded son costs ≥ 10 bytes (trace ref + fixed64 key + flag).
	if n > uint64(d.Remaining()/10)+1 {
		return nil, fmt.Errorf("son list claims %d entries in %d bytes: %w", n, d.Remaining(), trace.ErrCorrupt)
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]son, 0, n)
	for i := uint64(0); i < n; i++ {
		var v son
		if v.t, err = d.Trace(); err != nil {
			return nil, err
		}
		has, err := d.Bool()
		if err != nil {
			return nil, err
		}
		if has {
			if v.f, err = decodeTuple(d); err != nil {
				return nil, err
			}
		}
		out = append(out, v)
	}
	return out, nil
}

func encodeTuple(e *trace.Encoder, tu fn.Tuple) {
	e.Uvarint(uint64(len(tu)))
	for _, sq := range tu {
		e.Uvarint(uint64(len(sq)))
		for _, v := range sq {
			e.Value(v)
		}
	}
}

func decodeTuple(d *trace.Decoder) (fn.Tuple, error) {
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(d.Remaining())+1 {
		return nil, fmt.Errorf("tuple claims %d seqs: %w", n, trace.ErrCorrupt)
	}
	tu := make(fn.Tuple, 0, n)
	for i := uint64(0); i < n; i++ {
		m, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if m > uint64(d.Remaining())+1 {
			return nil, fmt.Errorf("seq claims %d values: %w", m, trace.ErrCorrupt)
		}
		sq := make(seq.Seq, 0, m)
		for j := uint64(0); j < m; j++ {
			v, err := d.Value()
			if err != nil {
				return nil, err
			}
			sq = append(sq, v)
		}
		tu = append(tu, sq)
	}
	return tu, nil
}
