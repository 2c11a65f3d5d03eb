// Package trace provides wall-clock instrumentation for real training
// loops in two shapes. Timer is a flat per-phase accumulator, producing
// the forward / backward-compute / backward-comm / optimizer breakdown
// of the paper's Fig 6 for code that actually executes (the simulator
// computes the same breakdown analytically). Tracer/Span add
// hierarchical spans with explicit start/end timestamps and a JSON
// dump — the shape elastic recovery uses, where a root "recovery" span
// is tiled exactly by its rendezvous / mesh-build / state-sync /
// rebind / install phases so a regression names the phase that slowed
// down.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Timer accumulates wall time per named phase. Not safe for concurrent
// use; each rank keeps its own.
type Timer struct {
	// now is the clock, replaceable in tests.
	now func() time.Time

	totals  map[string]time.Duration
	order   []string
	current string
	started time.Time
}

// NewTimer returns an empty timer using the real clock.
func NewTimer() *Timer {
	return &Timer{now: time.Now, totals: make(map[string]time.Duration)}
}

// NewTimerWithClock returns a timer driven by the given clock (tests).
func NewTimerWithClock(now func() time.Time) *Timer {
	return &Timer{now: now, totals: make(map[string]time.Duration)}
}

// Start begins timing a phase, ending the previous phase if any.
func (t *Timer) Start(phase string) {
	t.Stop()
	if _, ok := t.totals[phase]; !ok {
		t.order = append(t.order, phase)
	}
	t.current = phase
	t.started = t.now()
}

// Stop ends the current phase, adding the elapsed time to its total.
func (t *Timer) Stop() {
	if t.current == "" {
		return
	}
	t.totals[t.current] += t.now().Sub(t.started)
	t.current = ""
}

// Phase returns the accumulated duration of a phase.
func (t *Timer) Phase(name string) time.Duration { return t.totals[name] }

// Total returns the sum over all phases.
func (t *Timer) Total() time.Duration {
	var sum time.Duration
	for _, d := range t.totals {
		sum += d
	}
	return sum
}

// Phases returns phase names in first-start order.
func (t *Timer) Phases() []string { return append([]string(nil), t.order...) }

// Reset clears all accumulated time. A phase in flight is not lost: it
// keeps running from the moment of the Reset, so the Stop (or Start)
// that eventually lands accounts the post-Reset portion under the same
// phase name instead of silently dropping it.
func (t *Timer) Reset() {
	t.totals = make(map[string]time.Duration)
	t.order = nil
	if t.current != "" {
		t.order = append(t.order, t.current)
		t.started = t.now()
	}
}

// Breakdown renders phases with their share of the total, e.g.
// "forward 25.0% (50ms) | backward 75.0% (150ms)".
func (t *Timer) Breakdown() string {
	total := t.Total()
	if total == 0 {
		return "(no samples)"
	}
	parts := make([]string, 0, len(t.order))
	for _, name := range t.order {
		d := t.totals[name]
		parts = append(parts, fmt.Sprintf("%s %.1f%% (%s)", name, 100*float64(d)/float64(total), d.Round(time.Microsecond)))
	}
	return strings.Join(parts, " | ")
}

// SortedPhases returns phase names ordered by descending duration —
// "which step deserves the most optimization effort" (the question
// Fig 6 answers).
func (t *Timer) SortedPhases() []string {
	names := t.Phases()
	sort.Slice(names, func(i, j int) bool {
		return t.totals[names[i]] > t.totals[names[j]]
	})
	return names
}
