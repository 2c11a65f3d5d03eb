package comm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/transport"
)

// GradientCompressor is implemented by process groups whose AllReduce
// ships a codec's byte representation on the wire instead of full
// float32 frames (Section 6.2.3 made real: the byte savings exist on
// the sockets, not just in the simulator's cost model). meshGroup and
// RoundRobin implement it, and a group decorator must forward it:
// CompressedAllReduce, the entry point callers (DDP) use, refuses a
// group without it.
type GradientCompressor interface {
	// CompressedAllReduce reduces data in place across all ranks like
	// AllReduce, quantizing through codec. residual is nil or a
	// caller-owned error-feedback accumulator of len(data), updated
	// during execution (read it only after Wait).
	CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work
}

// ErrCompressionUnsupported is what a compressed collective fails with,
// at submission and wrapped with the reason, when it cannot ride the
// byte lanes: the group does not implement GradientCompressor, its mesh
// carries no byte frames (transport.ByteLanes), or the op is not Sum or
// Avg — decode-reduce-reencode of Min/Max/Prod through a lossy
// representation compounds unpredictably. All three are properties of
// the configuration, identical on every rank, so every rank fails the
// same call: no tag is reserved, no frame is sent, data and residual are
// untouched and the group stays usable. There is no float fallback — a
// quantize-then-AllReduce is a different numerical trajectory, and a run
// must not switch trajectories because a decorator forgot a method.
var ErrCompressionUnsupported = errors.New("comm: compressed collective unsupported")

// CompressedAllReduce reduces data across pg through codec's compressed
// representation, shipping real bytes, or fails with
// ErrCompressionUnsupported. residual enables error feedback; see Codec.
// Like AllReduce, every rank must submit the same collectives in the
// same order, and all ranks finish with bitwise-identical data. A nil
// codec is a plain AllReduce.
//
// The schedule depends only on the resolved algorithm and the topology:
// a group configured (or Auto-resolved) to Hierarchical with a
// hierarchical topology runs the COMPRESSED LEADER RING — exact float32
// reduce/broadcast within each host (and each level of a structured
// topology), with only the outermost leader ring riding the codec's
// byte lanes — compression exactly where bytes are expensive. Every
// other configuration takes the flat compressed
// reduce-scatter/all-gather.
func CompressedAllReduce(pg ProcessGroup, data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return pg.AllReduce(data, op)
	}
	gc, ok := pg.(GradientCompressor)
	if !ok {
		return CompletedWork(fmt.Errorf("%w: %T does not implement GradientCompressor", ErrCompressionUnsupported, pg))
	}
	return gc.CompressedAllReduce(data, op, codec, residual)
}

// residualBackup makes a collective's residual update transactional: the
// collective updates the caller's residual in place, and a failure puts
// the pre-collective contents back. A collective aborted mid-flight (the
// elastic failure path) transmitted nothing, so the residual must not
// claim it did — a half-updated accumulator would skew every subsequent
// gradient, and nondeterministically, since the abort point depends on
// timing. The caller reads its residual only after Wait, so the
// intermediate state is never observed. A nil residual backs up to
// nothing.
type residualBackup struct {
	residual, pre []float32
}

func backUpResidual(residual []float32) residualBackup {
	pre := transport.GetFloats(len(residual))
	copy(pre, residual)
	return residualBackup{residual, pre}
}

// settle ends the transaction under the collective's outcome, which it
// returns: the update stands on success and is undone on failure.
func (b residualBackup) settle(err error) error {
	if err != nil {
		copy(b.residual, b.pre)
	}
	transport.PutFloats(b.pre)
	return err
}

// CompressedAllReduce implements GradientCompressor on the mesh-backed
// group: the collective executes on the group's worker in submission
// order, exactly like AllReduce.
func (g *meshGroup) CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return g.AllReduce(data, op)
	}
	algo := g.resolveAlgorithm(len(data))
	return g.submitCompressed(data, op, codec, residual,
		func(start time.Time) { observeAllReduce("compressed", len(data), start, nil) },
		func(bm transport.ByteMesh, tag uint64) (int, error) {
			r := run{m: g.mesh, bm: bm, rank: g.Rank(), tag: tag, data: data, op: op, codec: codec, residual: residual}
			if algo == Hierarchical {
				return hierarchicalAllReduce(r, g.topo)
			}
			return flatCompressed(r)
		})
}

// submitCompressed submits one compressed collective, or refuses it
// with ErrCompressionUnsupported before a tag is reserved. run receives
// the mesh's byte lanes and the reserved tag and returns the encoded
// bytes this rank shipped; observe records the success. The residual
// update is transactional (see residualBackup).
func (g *meshGroup) submitCompressed(data []float32, op ReduceOp, codec Codec, residual []float32, observe func(start time.Time), run func(bm transport.ByteMesh, tag uint64) (int, error)) Work {
	if op != Sum && op != Avg {
		return CompletedWork(fmt.Errorf("%w: op %v (only sum and avg reduce through a codec)", ErrCompressionUnsupported, op))
	}
	bm, ok := transport.ByteLanes(g.mesh)
	if !ok {
		return CompletedWork(fmt.Errorf("%w: mesh %T has no byte lanes", ErrCompressionUnsupported, g.mesh))
	}
	if residual != nil && len(residual) != len(data) {
		return CompletedWork(fmt.Errorf("comm: residual has %d elements for %d data elements", len(residual), len(data)))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		backup := backUpResidual(residual)
		wire, err := run(bm, tag)
		if backup.settle(err) != nil {
			return err
		}
		observe(start)
		if wire > 0 {
			mCompressedWireBytes.With(codec.Name()).Observe(float64(wire))
		}
		return nil
	})
}

// CompressedAllReduce dispatches to the next sub-group
// (GradientCompressor on RoundRobin).
func (r *RoundRobin) CompressedAllReduce(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return CompressedAllReduce(g, data, op, codec, residual)
}

// compressedSteps is rank me's part of the wire-level compressed
// AllReduce (Sum) among k participants over n elements — every rank of a
// flat group, the outermost leaders of a hierarchical one: a
// reduce-scatter + all-gather over the chunkBounds layout, chunk j owned
// by participant j, in which every frame is the codec's byte
// representation riding the byte lanes.
//
// Stage 1 (compressedScatterSteps) leaves on each owner the exact
// float32 fold, in participant order, of the k quantized contributions to
// its chunk, its own included. Stage 2 (compressedGatherSteps) quantizes
// the reduced chunk once more, without the residual, and every rank
// decodes the same bytes the owner's chunk now holds, so all ranks
// finish bitwise-identical, the invariant DDP's replica consistency
// rests on. Alone (k = 1) there is nobody to gather from and stage 1's
// single quantization stands: quantization must not depend on world
// size — a single rank still pays the codec's accuracy cost and keeps
// its residual trajectory comparable to any other world's.
//
// With pair (two participants; see pairs) both stages are one exchange
// instead: ringPairStep as a codec step — each rank ships both chunks,
// each quantized with its residual slice, and adds the peer's frame to
// its own quantized values, which is the owner's stage-1 fold on every
// chunk, since the one addition commutes — then a local round trip of
// both chunks, which by the Codec contract leaves exactly what the
// owner's stage-2 frame would decode to. Data, residuals and wire bytes
// are the two stages', in one frame a rank instead of two.
func compressedSteps(me, k, n int, pair bool) []step {
	if pair {
		st := ringPairStep(me, n)
		st.kind = contribution
		return []step{st, {to: me, from: me, sHi: n, rHi: n, kind: reduced}}
	}
	return append(compressedScatterSteps(me, k, n), compressedGatherSteps(me, k, n)...)
}

// compressedScatterSteps is stage 1, the compressed reduce-scatter: post
// each peer's chunk, quantized with its residual slice, to its owner,
// then quantize the own chunk into a local frame, while those fly, and
// land the k contributions to the own chunk in participant order — the
// first verbatim, the rest folded. Participant 0's own frame lands first,
// so it just quantizes its chunk in place.
func compressedScatterSteps(me, k, n int) []step {
	lo, hi := chunkBounds(n, k, me)
	steps := allPeers(me, k, func(p int) step {
		lo, hi := chunkBounds(n, k, p)
		return step{to: p, from: -1, sLo: lo, sHi: hi, kind: contribution}
	})
	if me > 0 {
		steps = append(steps, step{to: me, from: -1, sLo: lo, sHi: hi, kind: contribution})
	}
	for p := range k {
		st := step{to: -1, from: p, rLo: lo, rHi: hi, fold: p > 0, kind: contribution}
		if p == me && me == 0 {
			st.to, st.sLo, st.sHi = me, lo, hi
		}
		steps = append(steps, st)
	}
	return steps
}

// compressedGatherSteps is stage 2, the compressed all-gather: post the
// reduced own chunk to every peer — one frame, quantized without the
// residual, which leaves in the chunk what it decodes to — and decode
// every peer's into its chunk.
func compressedGatherSteps(me, k, n int) []step {
	lo, hi := chunkBounds(n, k, me)
	return append(allPeers(me, k, func(p int) step { return step{to: p, from: -1, sLo: lo, sHi: hi, kind: reduced} }),
		allPeers(me, k, func(p int) step {
			lo, hi := chunkBounds(n, k, p)
			return step{to: -1, from: p, rLo: lo, rHi: hi, kind: reduced}
		})...)
}

// pairs reports whether k participants run compressedSteps' one
// exchange: two, up to ringPairMaxElems, under Float16Codec only. The
// exchange saves a hop and has each rank repeat its peer's fold and
// round trip; BenchmarkRingPairCrossover measured that repeat cheap
// enough for fp16 (γ within 2× of the float fold's) and slower than the
// saved hop at every size it tries for 1-bit (γ ≈ 5 ns/element) and
// top-k (γ ≈ 30, a quickselect per encode), so those keep the two stages.
func pairs(codec Codec, k, n int) bool {
	_, fp16 := codec.(Float16Codec)
	return fp16 && k == 2 && n <= ringPairMaxElems
}

// flatCompressed runs compressedSteps among every rank of r's mesh and
// scales for Avg. It returns the encoded payload bytes this rank put on
// the byte lanes — the sample the comm_compressed_wire_bytes histogram
// records. Per rank the wire carries 2(k-1) compressed chunk frames (one
// holding both chunks on the pair path) instead of the flat ring's
// 2(k-1) float32 chunks: the full codec ratio, minus headers.
func flatCompressed(r run) (int, error) {
	k, n := r.m.Size(), len(r.data)
	r.name, r.parts = "compressed allreduce", k
	wire, err := runSteps(r, compressedSteps(r.rank, k, n, pairs(r.codec, k, n)))
	if err == nil {
		finishAvg(r.data, r.op, k)
	}
	return wire, err
}

var _ GradientCompressor = (*meshGroup)(nil)
var _ GradientCompressor = (*RoundRobin)(nil)
