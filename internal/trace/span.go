// Package trace records hierarchical wall-clock spans with explicit
// start and end timestamps and a JSON dump — the shape elastic
// recovery uses, where a root "recovery" span is tiled exactly by its
// rendezvous / mesh-build / state-sync / rebind / install phases so a
// regression names the phase that slowed down. A training step's
// forward / backward split is train.Stats, which train.Step measures.
package trace

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Span is one timed region of a hierarchical trace: explicit start and
// end timestamps plus nested children. A span is built by one goroutine
// at a time (each recovery, each worker keeps its own); the Tracer that
// owns it serializes access to the finished trees.
type Span struct {
	Name     string
	Start    time.Time
	End      time.Time
	Children []*Span

	now  func() time.Time
	open *Span // currently open child, if any
}

// Tracer mints root spans and keeps every finished tree for export.
type Tracer struct {
	now func() time.Time

	mu    sync.Mutex
	roots []*Span
}

// NewTracer returns a tracer using the real clock.
func NewTracer() *Tracer { return &Tracer{now: time.Now} }

// WithSpan is the one way to open a root span: it runs fn with a new
// span and finishes the span when fn returns or panics, so no span can
// outlive the function that opened it. The span is recorded before fn
// runs, so a trace dump taken mid-flight shows it with no end. On a nil
// Tracer fn runs with a nil span, on which every Span method no-ops.
func (t *Tracer) WithSpan(name string, fn func(*Span) error) error {
	if t == nil {
		return fn(nil)
	}
	s := t.startSpan(name)
	defer s.Finish()
	return fn(s)
}

// startSpan opens and records a new root span.
func (t *Tracer) startSpan(name string) *Span {
	s := &Span{Name: name, Start: t.now(), now: t.now}
	t.mu.Lock()
	t.roots = append(t.roots, s)
	t.mu.Unlock()
	return s
}

// Roots returns the recorded root spans, oldest first.
func (t *Tracer) Roots() []*Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Span(nil), t.roots...)
}

// WriteJSON dumps every recorded root span as an indented JSON array of
// span trees, each node carrying name, RFC 3339 start/end, a derived
// duration_ns, and children.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Roots())
}

// Phase ends the span's current phase (if any) and starts the next one
// at the same instant. Because each phase begins exactly where the
// previous one ends — and Finish closes the last phase at the span's
// own end — the phases partition the span's duration with no gaps or
// overlap: their durations sum to the parent's by construction, which
// is what lets a recovery-time regression be attributed to a phase.
// The first phase of a span is anchored at the span's own Start, so the
// partition covers the span from its very beginning even if a few
// instructions ran between the span's start and the first Phase call.
// A nil receiver no-ops and returns nil, so code instrumented against
// an optional tracer needs no guards.
func (s *Span) Phase(name string) *Span {
	if s == nil {
		return nil
	}
	ts := s.now()
	if s.open != nil {
		s.open.End = ts
	} else if len(s.Children) == 0 {
		ts = s.Start
	}
	c := &Span{Name: name, Start: ts, now: s.now}
	s.Children = append(s.Children, c)
	s.open = c
	return c
}

// Finish ends the span — and any phase still open — at the current
// time. Finishing twice keeps the first end; a nil receiver no-ops.
func (s *Span) Finish() {
	if s == nil || !s.End.IsZero() {
		return
	}
	ts := s.now()
	if s.open != nil {
		s.open.End = ts
		s.open = nil
	}
	s.End = ts
}

// Duration returns End - Start, or 0 while the span is still open or
// the receiver is nil.
func (s *Span) Duration() time.Duration {
	if s == nil || s.End.IsZero() {
		return 0
	}
	return s.End.Sub(s.Start)
}

// spanJSON is Span's wire form; durations are precomputed so consumers
// need no timestamp arithmetic.
type spanJSON struct {
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	End        *time.Time `json:"end,omitempty"`
	DurationNs int64      `json:"duration_ns"`
	Children   []*Span    `json:"children,omitempty"`
}

// MarshalJSON renders the span with a derived duration_ns and omits the
// end timestamp of a still-open span.
func (s *Span) MarshalJSON() ([]byte, error) {
	j := spanJSON{
		Name:       s.Name,
		Start:      s.Start,
		DurationNs: int64(s.Duration()),
		Children:   s.Children,
	}
	if !s.End.IsZero() {
		end := s.End
		j.End = &end
	}
	return json.Marshal(j)
}
