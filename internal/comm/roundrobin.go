package comm

import (
	"fmt"
	"sync"
)

// roundRobin is the composite ProcessGroup of Section 5.4: it dispatches
// successive collectives to a list of sub-groups in round-robin order,
// working around per-group concurrency limits (one worker goroutine per
// group here; one set of NCCL streams or Gloo threads in the paper) so
// that multiple buckets' AllReduces genuinely proceed in parallel.
//
// Every rank must construct the roundRobin wrapper over sub-groups in
// the same order; the shared dispatch counter then stays aligned across
// ranks because all ranks submit collectives in the same order.
//
// roundRobin implements Aborter by fanning out to every sub-group, so
// elastic recovery can tear down a multi-mesh generation exactly like a
// single-mesh one. Abort and Close are idempotent and may be called in
// either order (elastic teardown calls both).
type roundRobin struct {
	groups []ProcessGroup

	mu     sync.Mutex
	next   int
	closed bool
}

// NewRoundRobin composes sub-groups into a round-robin group. All
// sub-groups must have the same rank and size.
func NewRoundRobin(groups ...ProcessGroup) (*roundRobin, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("comm: round-robin needs at least one group")
	}
	for _, g := range groups[1:] {
		if g.Rank() != groups[0].Rank() || g.Size() != groups[0].Size() {
			return nil, fmt.Errorf("comm: round-robin sub-groups disagree on rank/size")
		}
	}
	return &roundRobin{groups: groups}, nil
}

// pick advances the dispatch counter and returns the next sub-group,
// or nil after Close/Abort (submissions then fail with ErrClosed
// rather than racing the teardown).
func (r *roundRobin) pick() ProcessGroup {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	g := r.groups[r.next]
	r.next = (r.next + 1) % len(r.groups)
	return g
}

// Rank returns the shared rank of the sub-groups.
func (r *roundRobin) Rank() int { return r.groups[0].Rank() }

// Size returns the shared size of the sub-groups.
func (r *roundRobin) Size() int { return r.groups[0].Size() }

// AllReduce dispatches to the next sub-group.
func (r *roundRobin) AllReduce(data []float32, op ReduceOp) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return g.AllReduce(data, op)
}

// Broadcast dispatches to the next sub-group.
func (r *roundRobin) Broadcast(data []float32, root int) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return g.Broadcast(data, root)
}

// AllGather dispatches to the next sub-group.
func (r *roundRobin) AllGather(dst [][]float32, src []float32) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return g.AllGather(dst, src)
}

// Barrier synchronizes through every sub-group so no in-flight work on
// any of them can cross the barrier. Errors surface deterministically:
// every sub-group's barrier is waited on, and the reported error is the
// one from the lowest-indexed failing sub-group, annotated with its
// index — identical on every rank and across runs regardless of which
// sub-group worker loses the race to fail first.
func (r *roundRobin) Barrier() Work {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return CompletedWork(ErrClosed)
	}
	groups := r.groups
	r.mu.Unlock()
	works := make([]Work, len(groups))
	for i, g := range groups {
		works[i] = g.Barrier()
	}
	w := newPendingWork()
	go func() {
		var first error
		for i, sub := range works {
			if err := sub.Wait(); err != nil && first == nil {
				first = fmt.Errorf("comm: round-robin sub-group %d: %w", i, err)
			}
		}
		w.finish(first)
	}()
	return w
}

// shutdown marks the wrapper closed and returns the sub-groups to tear
// down, or nil when a previous Close/Abort already did.
func (r *roundRobin) shutdown() []ProcessGroup {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	return r.groups
}

// Close closes every sub-group, waiting for their in-flight collectives
// to finish. Safe after Abort (a no-op then) and under repeated calls.
func (r *roundRobin) Close() error {
	var first error
	for _, g := range r.shutdown() {
		if err := g.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Abort cancels every sub-group, freeing collectives blocked on dead
// peers (comm.AbortGroup on each, so TCP sub-meshes get the
// deadline+close treatment). Idempotent, and Close afterwards is a
// no-op — elastic teardown calls both in sequence.
func (r *roundRobin) Abort() error {
	var first error
	for _, g := range r.shutdown() {
		if err := AbortGroup(g); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var _ ProcessGroup = (*roundRobin)(nil)
var _ Aborter = (*roundRobin)(nil)
