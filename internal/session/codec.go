// Session serialization. A session splits into two blobs so the service
// can store them content-addressed: a small meta blob (identity, bounds,
// leg counters) and the checkpoint blob it references by SHA-256 — the
// heavy part, holding the classified prefix and the frontier with its f
// tuples through the solver codec. Decode verifies the fetched checkpoint
// against the reference before trusting a byte of it, so a store that
// hands back the wrong (or bit-rotted) blob fails closed.
//
// Like the checkpoint codec, function values do not serialize: Decode
// takes the Problem and System rebuilt from the stored spec source.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"smoothproc/internal/desc"
	"smoothproc/internal/solver"
	"smoothproc/internal/trace"
)

// sessionVersion guards the meta layout; bump on any change.
const sessionVersion = 1

// Blob is one encoded session. Checkpoint is nil (and CheckpointRef
// empty) for a session that has not solved yet.
type Blob struct {
	Meta          []byte
	Checkpoint    []byte
	CheckpointRef string
}

// Encode snapshots the session into blobs. It takes the session lock, so
// the snapshot is one consistent leg — never half a resume.
func (s *Session) Encode() (Blob, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	var b Blob
	if s.cp != nil {
		data, err := s.cp.Encode()
		if err != nil {
			return Blob{}, fmt.Errorf("session %s: %w", s.key, err)
		}
		sum := sha256.Sum256(data)
		b.Checkpoint = data
		b.CheckpointRef = hex.EncodeToString(sum[:])
	}

	e := trace.NewEncoder()
	e.Uvarint(sessionVersion)
	e.String(s.key)
	e.Varint(int64(s.p.MaxDepth))
	e.Varint(int64(s.p.MaxNodes))
	e.Varint(int64(s.solves))
	e.Varint(int64(s.resumes))
	e.Varint(int64(s.replays))
	e.String(b.CheckpointRef)
	b.Meta = e.Bytes()
	return b, nil
}

// Decode rebuilds a session from its meta blob. p and sys must be
// rebuilt from the same spec the session was created with (the solver
// codec verifies the search flags). fetch loads the checkpoint blob by
// its reference; it is only called for sessions that had solved, and its
// payload is verified against the reference before decoding.
func Decode(meta []byte, p solver.Problem, sys desc.System, fetch func(ref string) ([]byte, error)) (*Session, error) {
	d, err := trace.NewDecoder(meta)
	if err != nil {
		return nil, fmt.Errorf("session: decode meta: %w", err)
	}
	v, err := d.Uvarint()
	if err != nil {
		return nil, fmt.Errorf("session: decode meta: %w", err)
	}
	if v != sessionVersion {
		return nil, fmt.Errorf("session: meta version %d, this build reads %d: %w", v, sessionVersion, trace.ErrCorrupt)
	}
	key, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("session: decode meta: %w", err)
	}
	var nums [5]int64
	for i := range nums {
		if nums[i], err = d.Varint(); err != nil {
			return nil, fmt.Errorf("session %s: decode meta: %w", key, err)
		}
	}
	ref, err := d.String()
	if err != nil {
		return nil, fmt.Errorf("session %s: decode meta: %w", key, err)
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("session %s: decode meta: %w", key, err)
	}

	p.MaxDepth = int(nums[0])
	p.MaxNodes = int(nums[1])
	s := &Session{
		key:     key,
		sys:     sys,
		p:       p,
		solves:  int(nums[2]),
		resumes: int(nums[3]),
		replays: int(nums[4]),
	}
	if ref == "" {
		return s, nil
	}
	if fetch == nil {
		return nil, fmt.Errorf("session %s: meta references checkpoint %s but no fetcher was given", key, ref)
	}
	data, err := fetch(ref)
	if err != nil {
		return nil, fmt.Errorf("session %s: fetch checkpoint %s: %w", key, ref, err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != ref {
		return nil, fmt.Errorf("session %s: checkpoint content hash %s does not match reference %s: %w", key, got, ref, trace.ErrCorrupt)
	}
	cp, err := solver.DecodeCheckpoint(data, p)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", key, err)
	}
	s.cp = cp
	s.res = cp.Result()
	return s, nil
}

// MetaKey reads just the session key out of a meta blob, for listings.
func MetaKey(meta []byte) (string, error) {
	d, err := trace.NewDecoder(meta)
	if err != nil {
		return "", err
	}
	if _, err := d.Uvarint(); err != nil {
		return "", err
	}
	return d.String()
}
