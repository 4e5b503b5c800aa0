package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer's public functions, recorded from the
// benchmark's side of the boundary. Name is "<layer>.<operation>"; the
// layer is everything before the first dot. Req groups the spans of one
// request or pipeline pass.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Req    int           `json:"req,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	// AllocBytes and Mallocs are the process-wide MemStats deltas over the
	// span, recorded only for spans started with StartMem.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Layer is the module the span's call went into.
func (s Span) Layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// Tracer keeps spans in memory for the life of the run. A nil *Tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay one
// nil check per call site.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a span in progress.
type Open struct {
	tr   *Tracer
	span Span
	mem  bool
	ms   runtime.MemStats
}

// Start opens a span named name under parent (0 = root) for request req.
// Its ID is assigned now, so children can name it while it is open.
func (t *Tracer) Start(name string, parent, req int) *Open {
	if t == nil {
		return nil
	}
	id := t.add(Span{})
	return &Open{tr: t, span: Span{ID: id, Parent: parent, Req: req, Name: name, Start: time.Since(t.t0)}}
}

// StartMem is Start that also records the MemStats delta over the span.
// ReadMemStats stops the world briefly, so it is kept to coarse spans.
func (t *Tracer) StartMem(name string, parent, req int) *Open {
	o := t.Start(name, parent, req)
	if o != nil {
		o.mem = true
		runtime.ReadMemStats(&o.ms)
		o.span.Start = time.Since(t.t0)
	}
	return o
}

// ID is the span's ID, for use as a parent (0 when tracing is off).
func (o *Open) ID() int {
	if o == nil {
		return 0
	}
	return o.span.ID
}

// End closes the span.
func (o *Open) End() {
	if o == nil {
		return
	}
	o.span.End = time.Since(o.tr.t0)
	if o.mem {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		o.span.AllocBytes = after.TotalAlloc - o.ms.TotalAlloc
		o.span.Mallocs = after.Mallocs - o.ms.Mallocs
	}
	o.tr.add(o.span)
}

// add stores s, or a new span when s.ID is 0, and returns its ID.
func (t *Tracer) add(s Span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.ID != 0 {
		t.spans[s.ID-1] = s
		return s.ID
	}
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// Record adds an already-timed span (start and end measured by the caller,
// for example around an HTTP request on a load-generator goroutine).
func (t *Tracer) Record(name string, parent, req int, start, end time.Time) {
	if t != nil {
		t.add(Span{Parent: parent, Req: req, Name: name, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
	}
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Named returns the durations of every span with the given name, in
// milliseconds.
func (t *Tracer) Named(name string) []float64 {
	var out []float64
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, ms(s.Dur()))
		}
	}
	return out
}

// SelfTime sums, per layer, each span's duration minus the part of its
// interval that its child spans cover.
func SelfTime(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer()] += s.Dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval. Children of one parent may overlap when they
// ran on different goroutines.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// WriteFile writes every span as JSON to path, creating its directory.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
