package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"
)

// fakeClock is a clock that moves only when told to.
type fakeClock struct {
	t time.Time
}

func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) now() time.Time          { return c.t }

func TestSpanPhasesTileParentExactly(t *testing.T) {
	c := &fakeClock{}
	tr := NewTracerWithClock(c.now)
	root := tr.startSpan("recovery")
	root.Phase("rendezvous")
	c.advance(7 * time.Millisecond)
	root.Phase("mesh-build")
	c.advance(13 * time.Millisecond)
	root.Phase("state-sync")
	c.advance(29 * time.Millisecond)
	root.Phase("residual-sync")
	c.advance(3 * time.Millisecond)
	root.Finish()

	if got := root.Duration(); got != 52*time.Millisecond {
		t.Fatalf("root duration = %v", got)
	}
	var sum time.Duration
	for i, ch := range root.Children {
		if ch.End.IsZero() {
			t.Fatalf("child %d (%s) never ended", i, ch.Name)
		}
		sum += ch.Duration()
		if i > 0 && !ch.Start.Equal(root.Children[i-1].End) {
			t.Fatalf("gap between %s and %s", root.Children[i-1].Name, ch.Name)
		}
	}
	if sum != root.Duration() {
		t.Fatalf("phase sum %v != root %v", sum, root.Duration())
	}
	if !root.Children[0].Start.Equal(root.Start) && len(root.Children) > 0 {
		// The first phase started after the root (Phase called later) —
		// legal in general, but here they coincide.
		t.Fatalf("first phase start %v != root start %v", root.Children[0].Start, root.Start)
	}
}

func TestSpanFinishIdempotent(t *testing.T) {
	c := &fakeClock{}
	tr := NewTracerWithClock(c.now)
	s := tr.startSpan("s")
	c.advance(time.Millisecond)
	s.Finish()
	end := s.End
	c.advance(time.Hour)
	s.Finish()
	if !s.End.Equal(end) {
		t.Fatal("second Finish moved the end timestamp")
	}
}

// TestWithSpanFinishesOnPanic: a function that panics inside WithSpan
// still leaves its span finished, with the last phase closed at the
// span's end.
func TestWithSpanFinishesOnPanic(t *testing.T) {
	c := &fakeClock{}
	tr := NewTracerWithClock(c.now)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the panic did not propagate out of WithSpan")
			}
		}()
		_ = tr.WithSpan("recovery", func(s *Span) error {
			s.Phase("rendezvous")
			c.advance(3 * time.Millisecond)
			panic("round collapsed")
		})
	}()
	roots := tr.Roots()
	if len(roots) != 1 || len(roots[0].Children) != 1 {
		t.Fatalf("roots = %+v, want one span with one phase", roots)
	}
	s, last := roots[0], roots[0].Children[0]
	if s.Duration() != 3*time.Millisecond {
		t.Fatalf("span duration = %v, want 3ms", s.Duration())
	}
	if !last.End.Equal(s.End) {
		t.Fatalf("last phase ended at %v, span at %v", last.End, s.End)
	}
}

// TestWithSpanNilTracer: a nil Tracer runs the function with a nil span,
// on which Phase and Finish are safe, and returns the function's error.
func TestWithSpanNilTracer(t *testing.T) {
	var tr *Tracer
	want := errors.New("attempt failed")
	called := false
	err := tr.WithSpan("recovery", func(s *Span) error {
		called = true
		if s != nil {
			t.Fatalf("nil tracer handed out span %+v", s)
		}
		s.Phase("rendezvous")
		s.Finish()
		return want
	})
	if !called || err != want {
		t.Fatalf("called = %v, err = %v; want true, %v", called, err, want)
	}
}

func TestTracerJSONDump(t *testing.T) {
	c := &fakeClock{t: time.Unix(1000, 0).UTC()}
	tr := NewTracerWithClock(c.now)
	root := tr.startSpan("recovery")
	root.Phase("rendezvous")
	c.advance(4 * time.Millisecond)
	root.Phase("mesh-build")
	c.advance(6 * time.Millisecond)
	root.Finish()

	// A dump taken while a span's function runs shows that span with no end.
	var buf bytes.Buffer
	if err := tr.WithSpan("in-flight", func(*Span) error { return tr.WriteJSON(&buf) }); err != nil {
		t.Fatal(err)
	}
	var dump []struct {
		Name       string `json:"name"`
		End        string `json:"end"`
		DurationNs int64  `json:"duration_ns"`
		Children   []struct {
			Name       string `json:"name"`
			DurationNs int64  `json:"duration_ns"`
		} `json:"children"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	if len(dump) != 2 || dump[0].Name != "recovery" || dump[1].Name != "in-flight" {
		t.Fatalf("dump = %+v", dump)
	}
	if dump[0].DurationNs != int64(10*time.Millisecond) {
		t.Fatalf("root duration_ns = %d", dump[0].DurationNs)
	}
	if len(dump[0].Children) != 2 || dump[0].Children[0].DurationNs != int64(4*time.Millisecond) {
		t.Fatalf("children = %+v", dump[0].Children)
	}
	if dump[1].End != "" || dump[1].DurationNs != 0 {
		t.Fatalf("open span should have no end: %+v", dump[1])
	}
}
