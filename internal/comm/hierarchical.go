package comm

import (
	"fmt"
	"slices"

	"repro/internal/transport"
)

// hierarchicalSteps is rank's part of the topology-aware AllReduce over
// n elements, a concatenation of schedules the other generators already
// produce, each over a subset of the ranks and renumbered onto them:
//
//  1. up — at each level l from the deepest (hosts) to the outermost,
//     the level's participants (every host member at the deepest level,
//     the child groups' leaders above it) fold their buffers onto the
//     level leader (the group's lowest rank) along a binomial tree;
//     only leaders continue outward;
//  2. ring — the level-0 leaders alone run the bandwidth-optimal ring
//     AllReduce (ringAllReduceSteps: two leaders meet in one exchange);
//  3. down — retracing the levels inward, each leader propagates the
//     finished buffer verbatim to its level's participants.
//
// The three parts come back separately because the compressed leader
// ring replaces part 2 with a byte-lane exchange; every other caller
// runs them as one list. With a plain two-level topology (unstructured
// labels) this is intra-host reduce, leader ring, intra-host broadcast.
func hierarchicalSteps(rank, n int, topo *Topology) (up, ring, down []step) {
	// onto renumbers a schedule over len(ranks) participants onto them.
	onto := func(ranks []int, steps []step) []step {
		for i := range steps {
			st := &steps[i]
			if st.to >= 0 {
				st.to = ranks[st.to]
			}
			if st.from >= 0 {
				st.from = ranks[st.from]
			}
		}
		return steps
	}
	for l := topo.Levels() - 1; l >= 0; l-- {
		parts := topo.phaseParticipants(l, rank)
		me := slices.Index(parts, rank)
		up = append(up, onto(parts, binomialReduceSteps(me, len(parts), n))...)
		// Outer levels broadcast before inner ones.
		down = append(onto(parts, binomialBroadcastSteps(me, len(parts), n, 0)), down...)
		if me != 0 {
			// Not this level's leader: the next frame this rank sees is
			// the broadcast back down.
			return up, nil, down
		}
	}
	leaders := topo.levelLeaders(0)
	me := slices.Index(leaders, rank)
	ring = onto(leaders, ringAllReduceSteps(me, len(leaders), n))
	return up, ring, down
}

// hierarchicalAllReduce is the topology-aware AllReduce (Section 6.1's
// cross-machine bandwidth collapse, answered with the multi-ring
// structure of Kumar et al., generalized to N levels after the IBM
// large-system design): it reduces within each host first so only one
// rank's worth of data per host ever crosses the network, and — with a
// structured topology — repeats the same contraction at every level of
// the hierarchy so each level's links carry one buffer per group below
// them. The schedule is hierarchicalSteps.
//
// The bitwise-identical-on-every-rank guarantee of the ring path is
// preserved: the ring leaves every top leader with bitwise-identical
// data (each chunk reduced on exactly one leader, propagated
// verbatim), and the downward broadcasts copy leader bytes verbatim,
// so all ranks agree exactly. Note the reduction ORDER differs from a
// flat ring's, so results can differ from Ring in the low bits for
// inexact float sums — identical across ranks either way, which is the
// invariant DDP needs.
//
// Degenerate layouts fall back to the flat ring: no topology, a single
// host (nothing crosses the network anyway), or a flat topology (one
// rank per host — the hierarchy has nothing to shed).
func hierarchicalAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp, topo *Topology) error {
	k := m.Size()
	if k == 1 {
		return nil
	}
	if topo == nil || !topo.Hierarchical() {
		return ringAllReduce(m, tag, data, op)
	}
	if topo.Size() != k {
		return fmt.Errorf("comm: topology covers %d ranks but mesh has %d", topo.Size(), k)
	}
	up, ring, down := hierarchicalSteps(m.Rank(), len(data), topo)
	return stepsAllReduce(m, tag, hierarchicalName, data, op, slices.Concat(up, ring, down))
}

// hierarchicalName is what frame-length errors call the schedule,
// compressed leader ring or not.
const hierarchicalName = "hierarchical allreduce"

// compressedLeaderRing is hierarchicalAllReduce with the leader ring
// compressed: between the up list and the down list the outermost
// leaders run the wire-level compressed reduce-scatter/all-gather
// (compressedAllReduce) among themselves over bm, m's byte lanes, with
// residual as the caller-owned error-feedback accumulator, while the
// intra-host phases stay exact float32 — compression where the bytes are
// expensive, full precision where they are nearly free. Only leaders
// touch residual; non-leader ranks' accumulators are left unchanged.
// topo must cover m and be hierarchical. The int result is the number of
// encoded payload bytes this rank put on the byte lanes (0 for
// non-leaders).
func compressedLeaderRing(m transport.Mesh, bm transport.ByteMesh, tag uint64, data []float32, op ReduceOp, topo *Topology, codec Codec, residual []float32) (int, error) {
	up, ring, down := hierarchicalSteps(m.Rank(), len(data), topo)
	if err := runSteps(m, tag, hierarchicalName, data, op, up); err != nil {
		return 0, err
	}
	wire := 0
	if len(ring) > 0 { // a top leader, and not the only one
		var err error
		if wire, err = compressedAllReduce(bm, tag, m.Rank(), topo.levelLeaders(0), data, codec, residual); err != nil {
			return 0, err
		}
	}
	if err := runSteps(m, tag, hierarchicalName, data, op, down); err != nil {
		return 0, err
	}
	// One 1/world scale over the whole mesh, not the leaders.
	finishAvg(data, op, m.Size())
	return wire, nil
}
