package comm

import (
	"errors"
	"fmt"
	"slices"
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
	leaderRing := g.resolveAlgorithm(len(data)) == Hierarchical && g.topo != nil && g.topo.Size() == g.Size() && g.topo.Hierarchical()
	return g.submitCompressed(data, op, codec, residual,
		func(start time.Time) { observeAllReduce("compressed", len(data), start, nil) },
		func(bm transport.ByteMesh, tag uint64) (int, error) {
			if leaderRing {
				return compressedLeaderRing(g.mesh, bm, tag, data, op, g.topo, codec, residual)
			}
			wire, err := compressedAllReduce(bm, tag, g.Rank(), allRanks(g.Size()), data, codec, residual)
			if err == nil {
				finishAvg(data, op, g.Size())
			}
			return wire, err
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

// encodePooled encodes data into a buffer from the transport's pool;
// the caller hands the frame back with transport.PutBytes once nothing
// reads it any more. deq is Encode's.
func encodePooled(codec Codec, data, residual, deq []float32) []byte {
	return codec.Encode(transport.GetBytes(codec.EncodedSize(len(data)))[:0], data, residual, deq)
}

// compressedAllReduce is the wire-level compressed AllReduce (Sum) among
// ranks — ascending, this rank one of them: every rank of a flat group,
// the outermost leaders of a hierarchical one. It is a reduce-scatter +
// all-gather in which every frame is the codec's byte representation
// riding the transport's byte lanes. The buffer is split into
// k = len(ranks) chunks, chunk j owned by ranks[j].
//
// Stage 1 (compressed reduce-scatter, compressedReduceScatterChunks):
// every rank quantizes each chunk — with its slice of the error-feedback
// residual — and sends frame j to its owner; the owner folds the k
// dequantized contributions, its own included, in rank order.
//
// Stage 2 (compressed all-gather): each owner re-encodes its reduced
// chunk (no residual: this second quantization is of the already-
// reduced sum) and broadcasts the frame. The encoding pass leaves in
// the owner's chunk the values its frame decodes to, and every other
// rank decodes the identical bytes, so all ranks finish
// bitwise-identical, the invariant DDP's replica consistency rests on.
// Alone (k = 1) there is nobody to broadcast to and stage 1's single
// quantization stands: quantization must not depend on world size — a
// single rank still pays the codec's accuracy cost and keeps its
// residual trajectory comparable to any other world's.
//
// A rank never builds, ships or decodes a frame for itself: what Decode
// of that frame would have yielded comes out of Encode's deq in the
// quantizing pass. Nor does it hold the frames back: exchange asks for
// frame j when it is about to send it, so each is on the wire as soon
// as it exists and the rank's own quantization runs while they fly.
//
// Per rank the wire carries 2(k-1) compressed chunk frames instead of
// the flat ring's 2(k-1) float32 chunks: the full codec ratio, minus
// headers. The int result is the number of encoded payload bytes this
// rank put on the byte lanes — the sample the
// comm_compressed_wire_bytes histogram records.
func compressedAllReduce(bm transport.ByteMesh, tag uint64, rank int, ranks []int, data []float32, codec Codec, residual []float32) (int, error) {
	wire, err := compressedReduceScatterChunks(bm, tag, rank, ranks, data, codec, residual)
	k := len(ranks)
	if err != nil || k == 1 {
		return wire, err
	}

	// Stage 2: broadcast the re-encoded reduced chunk, keeping what it
	// decodes to, and decode everyone else's.
	lo, hi := chunkBounds(len(data), k, slices.Index(ranks, rank))
	reduced := encodePooled(codec, data[lo:hi], nil, data[lo:hi])
	defer transport.PutBytes(reduced) // exchange has joined every send by then
	wire += (k - 1) * len(reduced)
	peers := without(ranks, rank)
	err = exchange(byteLane(bm), tag, rank, peers, peers,
		func(int) []byte { return reduced },
		func(r int, frame []byte) error {
			lo, hi := chunkBounds(len(data), k, slices.Index(ranks, r))
			if err := codec.Decode(frame, data[lo:hi]); err != nil {
				return fmt.Errorf("comm: decoding reduced chunk from rank %d: %w", r, err)
			}
			return nil
		})
	return wire, err
}

// compressedReduceScatterChunks is stage 1 of the compressed schedule —
// a compressed reduce-scatter among ranks (see compressedAllReduce) over
// chunkBounds chunks, chunk j owned by ranks[j], in place: every
// rank encodes each peer's chunk of data (with its slice of the
// error-feedback residual) and ships it to the chunk's owner, and leaves
// in its own chunk of data the EXACT float32 fold, in rank order, of the
// k dequantized contributions — every one of them, its own included,
// passed through the same quantization. The caller decides whether to
// re-quantize that fold (compressedAllReduce's stage 2) or consume it
// exactly (the ZeRO-2/3 gradient-shard path, where the reduced chunk
// feeds the local optimizer shard and is never re-broadcast). The other
// chunks of data are not modified. Returned are the encoded payload
// bytes this rank put on the byte lanes; every pooled buffer used here
// has gone back by the time the function returns.
//
// The lowest rank's contribution opens the fold, so it is quantized in
// place. Any other rank quantizes its own into a side buffer — while its
// frames and the lowest rank's are in flight — and adds it when its turn
// in the order comes; peers' frames are decode-added as they arrive.
func compressedReduceScatterChunks(bm transport.ByteMesh, tag uint64, rank int, ranks []int, data []float32, codec Codec, residual []float32) (int, error) {
	k, me := len(ranks), slices.Index(ranks, rank)
	chunk := func(j int) (d, res []float32) {
		lo, hi := chunkBounds(len(data), k, j)
		if residual != nil {
			res = residual[lo:hi]
		}
		return data[lo:hi], res
	}
	acc, accRes := chunk(me)
	own := acc
	if me > 0 {
		own = transport.GetFloats(len(acc))
		defer transport.PutFloats(own)
	}
	wire := 0
	encs := make([][]byte, k)
	err := exchange(byteLane(bm), tag, rank, without(ranks, rank), ranks,
		func(p int) []byte {
			if p == rank {
				codec.Encode(nil, acc, accRes, own)
				return nil
			}
			j := slices.Index(ranks, p)
			d, res := chunk(j)
			encs[j] = encodePooled(codec, d, res, nil)
			wire += len(encs[j])
			return encs[j]
		},
		func(r int, frame []byte) error {
			var err error
			switch {
			case r == rank:
				if me > 0 {
					reduceInto(acc, own, Sum)
				}
			case r == ranks[0]:
				err = codec.Decode(frame, acc)
			default:
				err = codec.DecodeAdd(frame, acc)
			}
			if err != nil {
				return fmt.Errorf("comm: decoding chunk contribution from rank %d: %w", r, err)
			}
			return nil
		})
	// exchange has joined every send: nothing reads the frames any more.
	for _, enc := range encs {
		transport.PutBytes(enc)
	}
	return wire, err
}

var _ GradientCompressor = (*meshGroup)(nil)
var _ GradientCompressor = (*RoundRobin)(nil)
