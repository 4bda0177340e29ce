// Binary codec for persistent traces. The encoding mirrors the in-memory
// representation: a blob carries one shared node pool — each spine node
// written once, parents before children — and the traces in the body are
// varint references into that pool, so the prefix sharing that makes the
// §3.3 search's trace storage O(N) survives serialization byte for byte.
// A solver checkpoint whose frontier, pending nodes and result all hang off one
// spine costs one pool on disk, not one copy per retained trace.
//
// Integrity: the rolling structural hash is deliberately NOT stored per
// node. The decoder rebuilds every node through AppendPrehashed — the
// same code path live appends take — recomputing the whole hash chain,
// and every trace reference carries the 64-bit Key the encoder observed.
// A decoded reference whose recomputed Key differs from the stored one
// fails closed with a *CodecError (wrapping ErrCorrupt); it can never
// silently produce a trace whose memo key disagrees with its events.
// Decoding never panics on corrupt input: every length, reference and
// offset is bounds-checked first (the codec fuzz suite hammers this).
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"

	"smoothproc/internal/value"
)

// codecMagic opens every trace-codec blob: format name and version.
var codecMagic = []byte("SPT1")

// ErrCorrupt is the sentinel all decode failures wrap: a blob that is
// truncated, references out of range, or fails hash verification.
var ErrCorrupt = errors.New("trace: corrupt codec blob")

// CodecError is the structured decode failure: where in the blob the
// decoder stopped trusting it, and why. It unwraps to ErrCorrupt.
type CodecError struct {
	Offset int
	Reason string
}

func (e *CodecError) Error() string {
	return fmt.Sprintf("trace: corrupt codec blob at offset %d: %s", e.Offset, e.Reason)
}

func (e *CodecError) Unwrap() error { return ErrCorrupt }

// maxValueDepth bounds pair nesting on decode so a crafted blob cannot
// recurse the decoder's stack into the ground. No shipped alphabet nests
// pairs more than a handful deep.
const maxValueDepth = 1 << 12

// encNode is one pool entry awaiting serialization.
type encNode struct {
	parent uint64
	ev     Event
}

// Encoder builds one codec blob: a typed body written through the
// primitive writers, plus the node pool and string table the body's
// trace and string references point into. Not safe for concurrent use.
type Encoder struct {
	nodes   []encNode
	nodeRef map[*node]uint64
	strs    []string
	strRef  map[string]uint64
	body    []byte
}

// NewEncoder returns an empty encoder.
func NewEncoder() *Encoder {
	return &Encoder{
		nodeRef: make(map[*node]uint64),
		strRef:  make(map[string]uint64),
	}
}

// Uvarint appends an unsigned varint to the body.
func (e *Encoder) Uvarint(x uint64) { e.body = binary.AppendUvarint(e.body, x) }

// Varint appends a signed (zigzag) varint to the body.
func (e *Encoder) Varint(x int64) { e.body = binary.AppendVarint(e.body, x) }

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(b bool) {
	if b {
		e.body = append(e.body, 1)
	} else {
		e.body = append(e.body, 0)
	}
}

// intern returns the string-table reference for s, adding it on first use.
func (e *Encoder) intern(s string) uint64 {
	if ref, ok := e.strRef[s]; ok {
		return ref
	}
	ref := uint64(len(e.strs))
	e.strs = append(e.strs, s)
	e.strRef[s] = ref
	return ref
}

// String appends a string-table reference to the body.
func (e *Encoder) String(s string) { e.Uvarint(e.intern(s)) }

// Value appends one message value to the body.
func (e *Encoder) Value(v value.Value) { e.body = e.appendValue(e.body, v) }

func (e *Encoder) appendValue(b []byte, v value.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case value.KindInt:
		n, _ := v.AsInt()
		b = binary.AppendVarint(b, n)
	case value.KindBool:
		if v.IsTrue() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case value.KindSym:
		s, _ := v.AsSym()
		b = binary.AppendUvarint(b, e.intern(s))
	case value.KindPair:
		a, c, _ := v.AsPair()
		b = e.appendValue(b, a)
		b = e.appendValue(b, c)
	default:
		// The zero Value never appears in live traces; encode it as an
		// explicit kind 0 so decode rejects it rather than guessing.
	}
	return b
}

// register ensures every node of t's spine is in the pool (parents
// first) and returns t's reference; ⊥ is reference 0.
func (e *Encoder) register(t Trace) uint64 {
	if t.end == nil {
		return 0
	}
	// Walk up to the first already-registered ancestor, then assign
	// references root-side first so a parent's ref always precedes its
	// children's.
	var missing []*node
	n := t.end
	for n != nil {
		if _, ok := e.nodeRef[n]; ok {
			break
		}
		missing = append(missing, n)
		n = n.parent
	}
	for i := len(missing) - 1; i >= 0; i-- {
		m := missing[i]
		var parentRef uint64
		if m.parent != nil {
			parentRef = e.nodeRef[m.parent]
		}
		ref := uint64(len(e.nodes) + 1)
		e.nodes = append(e.nodes, encNode{parent: parentRef, ev: m.ev})
		e.nodeRef[m] = ref
	}
	return e.nodeRef[t.end]
}

// Trace appends one trace to the body: its pool reference plus its
// 64-bit Key, which the decoder recomputes and verifies.
func (e *Encoder) Trace(t Trace) {
	ref := e.register(t)
	e.Uvarint(ref)
	e.body = binary.LittleEndian.AppendUint64(e.body, uint64(t.Key()))
}

// Bytes assembles the blob: magic, string table, node pool, body. The
// encoder may keep being used afterwards (the blob is a snapshot).
func (e *Encoder) Bytes() []byte {
	// Serialize the pool first: node events may intern new strings, and
	// the table must be complete before it is written.
	var pool []byte
	pool = binary.AppendUvarint(pool, uint64(len(e.nodes)))
	for _, n := range e.nodes {
		pool = binary.AppendUvarint(pool, n.parent)
		pool = binary.AppendUvarint(pool, e.intern(n.ev.Ch))
		pool = e.appendValue(pool, n.ev.Val)
	}
	out := make([]byte, 0, len(codecMagic)+8+len(pool)+len(e.body)+16*len(e.strs))
	out = append(out, codecMagic...)
	out = binary.AppendUvarint(out, uint64(len(e.strs)))
	for _, s := range e.strs {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	out = append(out, pool...)
	out = append(out, e.body...)
	return out
}

// Decoder reads one codec blob. NewDecoder parses the header, string
// table and node pool — recomputing every node's rolling hash — and the
// typed readers then walk the body. Not safe for concurrent use.
type Decoder struct {
	data   []byte
	off    int
	strs   []string
	traces []Trace // by pool reference; traces[0] is ⊥
}

// corrupt builds the positioned decode error.
func (d *Decoder) corrupt(format string, args ...any) error {
	return &CodecError{Offset: d.off, Reason: fmt.Sprintf(format, args...)}
}

// NewDecoder parses the blob's header sections and returns a decoder
// positioned at the body. All failures wrap ErrCorrupt.
func NewDecoder(data []byte) (*Decoder, error) {
	d := &Decoder{data: data}
	if len(data) < len(codecMagic) || string(data[:len(codecMagic)]) != string(codecMagic) {
		return nil, d.corrupt("bad magic (want %q)", codecMagic)
	}
	d.off = len(codecMagic)

	nstrs, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	// Each string record costs at least one byte; a count beyond the
	// remaining bytes is corrupt, not an allocation request.
	if nstrs > uint64(len(data)-d.off) {
		return nil, d.corrupt("string table claims %d entries in %d bytes", nstrs, len(data)-d.off)
	}
	d.strs = make([]string, 0, nstrs)
	for i := uint64(0); i < nstrs; i++ {
		n, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(len(data)-d.off) {
			return nil, d.corrupt("string %d claims %d bytes, %d remain", i, n, len(data)-d.off)
		}
		d.strs = append(d.strs, string(data[d.off:d.off+int(n)]))
		d.off += int(n)
	}

	nnodes, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if nnodes > uint64(len(data)-d.off) {
		return nil, d.corrupt("node pool claims %d entries in %d bytes", nnodes, len(data)-d.off)
	}
	d.traces = make([]Trace, 1, nnodes+1)
	d.traces[0] = Empty
	for i := uint64(0); i < nnodes; i++ {
		parent, err := d.Uvarint()
		if err != nil {
			return nil, err
		}
		if parent >= uint64(len(d.traces)) {
			return nil, d.corrupt("node %d references parent %d before it exists", i+1, parent)
		}
		ch, err := d.stringRef()
		if err != nil {
			return nil, err
		}
		v, err := d.valueDepth(0)
		if err != nil {
			return nil, err
		}
		ev := Event{Ch: ch, Val: v}
		// AppendPrehashed recomputes the rolling hash from the parent's —
		// the stored blob never supplies hashes, it only gets to claim
		// keys that are then checked against this recomputation.
		d.traces = append(d.traces, d.traces[parent].AppendPrehashed(ev, ev.Hash64()))
	}
	return d, nil
}

// Uvarint reads an unsigned varint from the body.
func (d *Decoder) Uvarint() (uint64, error) {
	x, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		return 0, d.corrupt("bad uvarint")
	}
	d.off += n
	return x, nil
}

// Varint reads a signed varint from the body.
func (d *Decoder) Varint() (int64, error) {
	x, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		return 0, d.corrupt("bad varint")
	}
	d.off += n
	return x, nil
}

// Bool reads one byte that must be 0 or 1.
func (d *Decoder) Bool() (bool, error) {
	if d.off >= len(d.data) {
		return false, d.corrupt("truncated bool")
	}
	b := d.data[d.off]
	if b > 1 {
		return false, d.corrupt("bool byte %d", b)
	}
	d.off++
	return b == 1, nil
}

// stringRef reads a string-table reference.
func (d *Decoder) stringRef() (string, error) {
	ref, err := d.Uvarint()
	if err != nil {
		return "", err
	}
	if ref >= uint64(len(d.strs)) {
		return "", d.corrupt("string reference %d outside table of %d", ref, len(d.strs))
	}
	return d.strs[ref], nil
}

// String reads a string-table reference from the body.
func (d *Decoder) String() (string, error) { return d.stringRef() }

// Value reads one message value from the body.
func (d *Decoder) Value() (value.Value, error) { return d.valueDepth(0) }

func (d *Decoder) valueDepth(depth int) (value.Value, error) {
	if depth > maxValueDepth {
		return value.Value{}, d.corrupt("value nests deeper than %d", maxValueDepth)
	}
	if d.off >= len(d.data) {
		return value.Value{}, d.corrupt("truncated value")
	}
	kind := value.Kind(d.data[d.off])
	d.off++
	switch kind {
	case value.KindInt:
		n, err := d.Varint()
		if err != nil {
			return value.Value{}, err
		}
		return value.Int(n), nil
	case value.KindBool:
		b, err := d.Bool()
		if err != nil {
			return value.Value{}, err
		}
		return value.Bool(b), nil
	case value.KindSym:
		s, err := d.stringRef()
		if err != nil {
			return value.Value{}, err
		}
		return value.Sym(s), nil
	case value.KindPair:
		a, err := d.valueDepth(depth + 1)
		if err != nil {
			return value.Value{}, err
		}
		b, err := d.valueDepth(depth + 1)
		if err != nil {
			return value.Value{}, err
		}
		return value.Pair(a, b), nil
	default:
		return value.Value{}, d.corrupt("value kind %d", kind)
	}
}

// Trace reads one trace reference from the body and verifies its Key
// against the recomputed spine hash — the codec's integrity check.
func (d *Decoder) Trace() (Trace, error) {
	ref, err := d.Uvarint()
	if err != nil {
		return Trace{}, err
	}
	if ref >= uint64(len(d.traces)) {
		return Trace{}, d.corrupt("trace reference %d outside pool of %d", ref, len(d.traces)-1)
	}
	if d.off+8 > len(d.data) {
		return Trace{}, d.corrupt("truncated trace key")
	}
	key := binary.LittleEndian.Uint64(d.data[d.off:])
	d.off += 8
	t := d.traces[ref]
	if uint64(t.Key()) != key {
		return Trace{}, d.corrupt("trace %d key %#x does not match recomputed %#x — hash verification failed", ref, key, uint64(t.Key()))
	}
	return t, nil
}

// Remaining returns the unread body length.
func (d *Decoder) Remaining() int { return len(d.data) - d.off }

// Done verifies the body was consumed exactly; trailing bytes are as
// corrupt as missing ones.
func (d *Decoder) Done() error {
	if d.off != len(d.data) {
		return d.corrupt("%d trailing bytes", len(d.data)-d.off)
	}
	return nil
}

// EncodeTraces serializes a slice of traces into one blob, sharing the
// pool across them — the convenience form for callers that persist a
// plain trace set (and the round-trip fuzz oracle).
func EncodeTraces(ts []Trace) []byte {
	e := NewEncoder()
	e.Uvarint(uint64(len(ts)))
	for _, t := range ts {
		e.Trace(t)
	}
	return e.Bytes()
}

// DecodeTraces reverses EncodeTraces.
func DecodeTraces(data []byte) ([]Trace, error) {
	d, err := NewDecoder(data)
	if err != nil {
		return nil, err
	}
	n, err := d.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(data)) {
		return nil, d.corrupt("trace list claims %d entries in a %d-byte blob", n, len(data))
	}
	out := make([]Trace, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := d.Trace()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	if err := d.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
