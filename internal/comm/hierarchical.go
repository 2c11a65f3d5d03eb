package comm

import (
	"fmt"
	"slices"
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
//  2. top — the level-0 leaders alone, when there are several, run
//     top(me, k), me's part of an AllReduce among k participants: the
//     bandwidth-optimal ring (ringAllReduceSteps: two leaders meet in
//     one exchange), or the compressed schedule (compressedSteps);
//  3. down — retracing the levels inward, each leader propagates the
//     finished buffer verbatim to its level's participants.
//
// With a plain two-level topology (unstructured labels) this is
// intra-host reduce, leader ring, intra-host broadcast.
func hierarchicalSteps(rank, n int, topo *Topology, top func(me, k int) []step) []step {
	var up, down []step
	for l := topo.Levels() - 1; l >= 0; l-- {
		parts := topo.phaseParticipants(l, rank)
		me := slices.Index(parts, rank)
		up = append(up, onto(parts, binomialReduceSteps(me, len(parts), n))...)
		// Outer levels broadcast before inner ones.
		down = append(onto(parts, binomialBroadcastSteps(me, len(parts), n, 0)), down...)
		if me != 0 {
			// Not this level's leader: the next frame this rank sees is
			// the broadcast back down.
			return append(up, down...)
		}
	}
	if leaders := topo.levelLeaders(0); len(leaders) > 1 {
		up = append(up, onto(leaders, top(slices.Index(leaders, rank), len(leaders)))...)
	}
	return append(up, down...)
}

// hierarchicalAllReduce is the topology-aware AllReduce (Section 6.1's
// cross-machine bandwidth collapse, answered with the multi-ring
// structure of Kumar et al., generalized to N levels after the IBM
// large-system design): it reduces within each host first so only one
// rank's worth of data per host ever crosses the network, and — with a
// structured topology — repeats the same contraction at every level of
// the hierarchy so each level's links carry one buffer per group below
// them. The schedule is hierarchicalSteps, its top the ring — or, under
// a codec (r.codec set), the compressed schedule: the COMPRESSED LEADER
// RING, compression exactly where bytes are expensive, exact float32
// everywhere else. Only top leaders touch the residual; it returns the
// encoded bytes this rank shipped (0 off the top).
//
// The bitwise-identical-on-every-rank guarantee of the ring path is
// preserved: the top leaves every top leader with bitwise-identical
// data (each chunk reduced on exactly one leader, or by the same finite
// additions on both of a pair, propagated verbatim), and the downward
// broadcasts copy leader bytes verbatim, so all ranks agree exactly.
// Note the reduction ORDER differs from a flat ring's, so results can
// differ from Ring in the low bits for inexact float sums — identical
// across ranks either way, which is the invariant DDP needs.
//
// Degenerate layouts fall back to the lane's flat schedule: one rank, no
// topology, a single host (nothing crosses the network anyway), or a
// flat topology (one rank per host — the hierarchy has nothing to shed).
// A topology of another world fails, on either lane.
func hierarchicalAllReduce(r run, topo *Topology) (int, error) {
	k, n := r.m.Size(), len(r.data)
	if k == 1 || topo == nil || !topo.Hierarchical() {
		if r.codec != nil {
			steps, avg := flatCompressed(&r)
			return runScaled(r, steps, avg)
		}
		return 0, ringAllReduce(r.m, r.tag, r.data, r.op)
	}
	if topo.Size() != k {
		return 0, fmt.Errorf("comm: topology covers %d ranks but mesh has %d", topo.Size(), k)
	}
	top := func(me, k int) []step { return ringAllReduceSteps(me, k, n) }
	if r.codec != nil {
		r.parts = len(topo.levelLeaders(0))
		top = func(me, k int) []step { return compressedSteps(me, k, n, pairs(r.codec, k, n)) }
	}
	r.name = "hierarchical allreduce"
	wire, err := runSteps(r, hierarchicalSteps(r.rank, n, topo, top))
	if err == nil {
		// One 1/world scale over the whole mesh, not the leaders.
		finishAvg(r.data, r.op, k)
	}
	return wire, err
}
