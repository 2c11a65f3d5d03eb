package comm

import (
	"fmt"

	"repro/internal/transport"
)

// hierarchicalAllReduce is the topology-aware AllReduce (Section 6.1's
// cross-machine bandwidth collapse, answered with the multi-ring
// structure of Kumar et al., generalized to N levels after the IBM
// large-system design): it reduces within each host first so only one
// rank's worth of data per host ever crosses the network, and — with a
// structured topology — repeats the same contraction at every level of
// the hierarchy so each level's links carry one buffer per group below
// them.
//
// The schedule, built from sub-meshes carved out of m by rank
// remapping, walks the topology from the hosts outward and back:
//
//  1. reduce up — at each level l from the deepest (hosts) to the
//     outermost, the level's participants (every host member at the
//     deepest level, the child groups' leaders above it) fold their
//     buffers onto the level leader (the group's lowest rank) along a
//     binomial tree; only leaders continue outward;
//  2. top ring — the level-0 leaders alone run the bandwidth-optimal
//     ring AllReduce. With a codec, this — and only this — phase rides
//     the compressed byte lanes (see below);
//  3. broadcast down — retracing the levels inward, each leader
//     propagates the finished buffer verbatim to its level's
//     participants.
//
// With a plain two-level topology (unstructured labels) this is
// exactly PR 4's three-phase intra-host reduce / leader ring /
// intra-host broadcast.
//
// codec, when non-nil, turns phase 2 into the compressed leader ring:
// the leaders run the wire-level compressed reduce-scatter/all-gather
// (compressedAllReduce) among themselves, with residual as the
// caller-owned error-feedback accumulator, while the intra-host phases
// stay exact float32 — compression where the bytes are expensive, full
// precision where they are nearly free. Only leaders touch residual;
// non-leader ranks' accumulators are left unchanged. The int result is
// the number of encoded payload bytes this rank put on the byte lanes
// (0 for non-leaders and on the uncompressed path). Callers must
// pre-check that the mesh has byte lanes and the op is Sum/Avg
// (meshGroup.CompressedAllReduce does); a byte-lane-less leader
// sub-mesh falls back to quantize-then-ring among the leaders.
//
// The bitwise-identical-on-every-rank guarantee of the ring path is
// preserved: phase 2 leaves every top leader with bitwise-identical
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
func hierarchicalAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp, topo *Topology, codec WireCodec, residual []float32) (int, error) {
	k := m.Size()
	if k == 1 {
		return 0, nil
	}
	if topo == nil || !topo.Hierarchical() {
		return 0, ringAllReduce(m, tag, data, op)
	}
	if topo.Size() != k {
		return 0, fmt.Errorf("comm: topology covers %d ranks but mesh has %d", topo.Size(), k)
	}
	rank := m.Rank()
	levels := topo.Levels()

	// Avg folds as Sum through every phase; each rank applies the final
	// 1/world scale to its (bitwise-identical) copy at the end.
	foldOp := op
	if op == Avg {
		foldOp = Sum
	}

	// Phase 1: reduce up, hosts outward. Sub-meshes are stateless rank
	// remappings (Close is a no-op), so each level's view serves both
	// the reduce here and the broadcast in phase 3.
	meshes := make([]transport.Mesh, levels)
	topLeader := false
	for l := levels - 1; l >= 0; l-- {
		parts := topo.phaseParticipants(l, rank)
		if len(parts) > 1 {
			sub, err := transport.NewSubMesh(m, parts)
			if err != nil {
				return 0, err
			}
			meshes[l] = sub
			if err := binomialReduce(sub, tag, data, foldOp); err != nil {
				return 0, err
			}
		}
		if parts[0] != rank {
			// Not this level's leader: the next frame this rank sees is
			// the phase-3 broadcast back down.
			break
		}
		topLeader = l == 0
	}

	// Phase 2: the outermost leaders alone AllReduce their partials —
	// compressed over the byte lanes when a codec rides along.
	wire := 0
	if topLeader {
		leaders := topo.levelLeaders(0)
		if len(leaders) > 1 {
			sub, err := transport.NewSubMesh(m, leaders)
			if err != nil {
				return 0, err
			}
			if codec != nil {
				wire, err = compressedAllReduce(sub, tag, data, foldOp, codec, residual, Ring, nil)
				if err != nil {
					return 0, err
				}
			} else if err := ringAllReduce(sub, tag, data, foldOp); err != nil {
				return 0, err
			}
		}
	}

	// Phase 3: broadcast down, outermost inward, retracing phase 1's
	// sub-meshes; each level's leader is local rank 0 of its sub-mesh.
	for l := 0; l < levels; l++ {
		if meshes[l] == nil {
			continue
		}
		if err := binomialBroadcast(meshes[l], tag, data, 0); err != nil {
			return 0, err
		}
	}

	finishAvg(data, op, k)
	return wire, nil
}
