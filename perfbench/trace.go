package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smoothproc/internal/store"
)

// tracer records spans around the benchmark's calls into the program's
// public functions, plus named samples measured at the same boundaries.
// A disabled tracer (the untraced run) records nothing and costs one
// branch per call, so end-to-end figures come from untraced runs and the
// traced run reports the per-layer numbers.
type tracer struct {
	on    bool
	start time.Time

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64
	counts  map[string]float64
}

// span is one timed call: a name, its interval relative to the run's
// start, and the operation it belongs to, which ties the spans of one
// request, leg or solve together. The benchmark calls each layer from
// its own code, so every span is a root; spans inside the program are
// not recorded.
type span struct {
	ID    int    `json:"id"`
	Op    string `json:"op,omitempty"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, start: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(name, op string) (int, time.Time) {
	now := time.Now()
	if !t.on {
		return 0, now
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Op: op, Name: name, Start: now.Sub(t.start).Nanoseconds()})
	return id, now
}

// end closes span id and returns its duration.
func (t *tracer) end(id int, began time.Time) time.Duration {
	now := time.Now()
	d := now.Sub(began)
	if !t.on || id == 0 {
		return d
	}
	t.mu.Lock()
	t.spans[id-1].End = now.Sub(t.start).Nanoseconds()
	t.mu.Unlock()
	return d
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name, op string, f func()) time.Duration {
	id, began := t.begin(name, op)
	f()
	return t.end(id, began)
}

// sample appends one measurement to a named per-layer series.
func (t *tracer) sample(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// count adds to a named per-layer counter.
func (t *tracer) count(name string, v float64) {
	if !t.on {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) series(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

func (t *tracer) counter(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// writeSpans dumps the recorded spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocDelta measures the heap allocation a call makes: mallocs and
// bytes, from runtime.MemStats read around it. Only the traced run uses
// it (ReadMemStats stops the world).
func allocDelta(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// timingStore wraps a store backend and records each Put and Get as a
// span and a per-layer sample. The traced run hands it to the service as
// Config.Store; the untraced run leaves the store to the daemon default.
type timingStore struct {
	inner store.Store
	tr    *tracer
	// layer says whether the calls feed the store.* per-layer samples;
	// otherwise they are recorded as spans only.
	layer bool
}

func (s *timingStore) Put(ctx context.Context, kind store.Kind, key store.Key, data []byte) error {
	var err error
	d := s.tr.timed("store.Put", string(kind), func() { err = s.inner.Put(ctx, kind, key, data) })
	if s.layer {
		s.tr.sample("store.put_ms", ms(d))
		s.tr.sample("store.put_bytes", float64(len(data)))
	}
	if err != nil {
		s.tr.count("store.errors", 1)
	}
	return err
}

func (s *timingStore) Get(ctx context.Context, kind store.Kind, key store.Key) ([]byte, error) {
	var data []byte
	var err error
	d := s.tr.timed("store.Get", string(kind), func() { data, err = s.inner.Get(ctx, kind, key) })
	if s.layer {
		s.tr.sample("store.get_ms", ms(d))
	}
	if err != nil && !errors.Is(err, store.ErrNotFound) {
		s.tr.count("store.errors", 1)
	}
	return data, err
}

func (s *timingStore) Stat(ctx context.Context, kind store.Kind, key store.Key) (store.Info, error) {
	return s.inner.Stat(ctx, kind, key)
}

func (s *timingStore) List(ctx context.Context, kind store.Kind) ([]store.Info, error) {
	return s.inner.List(ctx, kind)
}

func (s *timingStore) Delete(ctx context.Context, kind store.Kind, key store.Key) error {
	return s.inner.Delete(ctx, kind, key)
}

func (s *timingStore) Close() error { return s.inner.Close() }
