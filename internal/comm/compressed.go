package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/transport"
)

// GradientCompressor is implemented by process groups whose AllReduce
// can ship a codec's byte representation on the wire instead of full
// float32 frames (Section 6.2.3 made real: the byte savings exist on
// the sockets, not just in the simulator's cost model). meshGroup and
// RoundRobin implement it; CompressedAllReduce is the capability-probing
// entry point callers (DDP) should use.
type GradientCompressor interface {
	// CompressedAllReduce reduces data in place across all ranks like
	// AllReduce, quantizing through codec. residual is nil or a
	// caller-owned error-feedback accumulator of len(data), updated
	// during execution (read it only after Wait).
	CompressedAllReduce(data []float32, op ReduceOp, codec WireCodec, residual []float32) Work
}

// CompressedAllReduce reduces data across pg through codec's compressed
// representation, shipping real bytes when the group supports it
// (GradientCompressor over a byte-lane transport) and degrading to
// quantize-then-AllReduce otherwise. The two paths are NOT numerically
// interchangeable: the wire path quantizes twice (each rank's
// contribution, then the reduced chunk before the all-gather), while
// the fallback quantizes once and reduces exactly in float32 — both
// converge under error feedback, but runs on byte-lane and float-only
// transports follow different trajectories, like switching AllReduce
// algorithms does. residual enables error feedback; see WireCodec.
// Like AllReduce, every rank must submit the same collectives in the
// same order, and all ranks finish with bitwise-identical data.
//
// The compressed schedule is topology-aware: a group configured (or
// Auto-resolved) to Hierarchical with a hierarchical topology runs the
// COMPRESSED LEADER RING — exact float32 reduce/broadcast within each
// host (and each level of a structured topology), with only the
// outermost leader ring riding the codec's byte lanes — compression
// exactly where bytes are expensive. Every other configuration takes
// the flat compressed reduce-scatter/all-gather.
func CompressedAllReduce(pg ProcessGroup, data []float32, op ReduceOp, codec WireCodec, residual []float32) Work {
	if codec == nil {
		return pg.AllReduce(data, op)
	}
	if gc, ok := pg.(GradientCompressor); ok {
		return gc.CompressedAllReduce(data, op, codec, residual)
	}
	// Generic fallback: quantize in place, reduce exactly.
	backup := backUpResidual(residual)
	quantizeThrough(codec, data, residual)
	return &residualGuard{inner: pg.AllReduce(data, op), backup: backup}
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

// residualGuard settles a residual backup when the wrapped Work
// completes.
type residualGuard struct {
	inner  Work
	backup residualBackup
	once   sync.Once
	err    error
}

// Wait reports the wrapped collective's result, undoing the residual
// update on failure.
func (w *residualGuard) Wait() error {
	w.once.Do(func() { w.err = w.backup.settle(w.inner.Wait()) })
	return w.err
}

// CompressedAllReduce implements GradientCompressor on the mesh-backed
// group: the collective executes on the group's worker in submission
// order, exactly like AllReduce.
func (g *meshGroup) CompressedAllReduce(data []float32, op ReduceOp, codec WireCodec, residual []float32) Work {
	if codec == nil {
		return g.AllReduce(data, op)
	}
	// The float fallback (byte-lane-less mesh, or Min/Max/Prod) honors
	// the group's configured algorithm and topology exactly like
	// AllReduce, instead of hard-coding Ring.
	algo := g.resolveAlgorithm(len(data))
	return g.submitCompressed(data, codec, residual,
		func(start time.Time) { observeAllReduce("compressed", len(data), start, nil) },
		func(tag uint64) (int, error) {
			return compressedAllReduce(g.mesh, tag, data, op, codec, residual, algo, g.topo)
		})
}

// submitCompressed submits one compressed collective. run receives the
// reserved tag and returns the encoded bytes this rank shipped; observe
// records the success. The residual update is transactional (see
// residualBackup).
func (g *meshGroup) submitCompressed(data []float32, codec WireCodec, residual []float32, observe func(start time.Time), run func(tag uint64) (int, error)) Work {
	if residual != nil && len(residual) != len(data) {
		return CompletedWork(fmt.Errorf("comm: residual has %d elements for %d data elements", len(residual), len(data)))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		backup := backUpResidual(residual)
		wire, err := run(tag)
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

// CompressedAllReduce dispatches to the next sub-group, using its
// wire-level path when available (GradientCompressor on RoundRobin).
func (r *RoundRobin) CompressedAllReduce(data []float32, op ReduceOp, codec WireCodec, residual []float32) Work {
	g := r.pick()
	if g == nil {
		return CompletedWork(ErrClosed)
	}
	return CompressedAllReduce(g, data, op, codec, residual)
}

// quantizeThrough applies codec's wire round trip to data in place —
// the degradation a compressed transfer would have produced — updating
// residual under error feedback. One pass, and no frame: nobody would
// receive it.
func quantizeThrough(codec WireCodec, data, residual []float32) {
	codec.Encode(nil, data, residual, data)
}

// encodePooled encodes data into a buffer from the transport's pool;
// the caller hands the frame back with transport.PutBytes once nothing
// reads it any more. deq is Encode's.
func encodePooled(codec WireCodec, data, residual, deq []float32) []byte {
	return codec.Encode(transport.GetBytes(codec.EncodedSize(len(data)))[:0], data, residual, deq)
}

// compressedAllReduce is the wire-level compressed AllReduce: a
// reduce-scatter + all-gather in which every frame is the codec's byte
// representation riding the transport's byte lanes. The buffer is split
// into k chunks, chunk j owned by rank j.
//
// Stage 1 (compressed reduce-scatter, compressedReduceScatterChunks):
// every rank quantizes each chunk — with its slice of the error-feedback
// residual — and sends frame j to rank j; the owner folds the k
// dequantized contributions, its own included, in rank order.
//
// Stage 2 (compressed all-gather): each owner re-encodes its reduced
// chunk (no residual: this second quantization is of the already-
// reduced sum) and broadcasts the frame. The encoding pass leaves in
// the owner's chunk the values its frame decodes to, and every other
// rank decodes the identical bytes, so all ranks finish
// bitwise-identical, the invariant DDP's replica consistency rests on.
//
// A rank never builds, ships or decodes a frame for itself: what Decode
// of that frame would have yielded comes out of Encode's deq in the
// quantizing pass. Nor does it hold the frames back: exchange asks for
// frame j when it is about to send it, so each is on the wire as soon
// as it exists and the rank's own quantization runs while they fly.
//
// Per rank the wire carries 2(k-1) compressed chunk frames instead of
// the flat ring's 2(k-1) float32 chunks: the full codec ratio, minus
// headers.
//
// Falls back to quantize-then-AllReduce (under the caller's configured
// algorithm) when the mesh has no byte lanes or when the op is not
// Sum/Avg — decode-reduce-reencode of Min/Max/Prod through a lossy
// representation compounds unpredictably, so those take the exact
// float path on quantized inputs.
//
// The int result is the number of encoded payload bytes this rank put
// on the byte lanes (0 on the float fallback paths) — the sample the
// comm_compressed_wire_bytes histogram records.
func compressedAllReduce(m transport.Mesh, tag uint64, data []float32, op ReduceOp, codec WireCodec, residual []float32, algo Algorithm, topo *Topology) (int, error) {
	bm, ok := compressedLanes(m, op)
	if !ok {
		quantizeThrough(codec, data, residual)
		return 0, allReduce(m, tag, algo, topo, data, op)
	}
	k, rank := m.Size(), m.Rank()

	// Compressed leader ring: with a hierarchical topology, keep the
	// intra-host (and intra-level) phases exact and compress only the
	// outermost leader ring, where every byte crosses the network.
	if algo == Hierarchical && topo != nil && topo.Size() == k && topo.Hierarchical() {
		return hierarchicalAllReduce(m, tag, data, op, topo, codec, residual)
	}

	wire, err := compressedReduceScatterChunks(m, bm, tag, data, codec, residual)
	if err != nil {
		return 0, err
	}

	// Stage 2: broadcast the re-encoded reduced chunk, keeping what it
	// decodes to, and decode everyone else's.
	lo, hi := chunkBounds(len(data), k, rank)
	reduced := encodePooled(codec, data[lo:hi], nil, data[lo:hi])
	defer transport.PutBytes(reduced) // exchange has joined every send by then
	wire += (k - 1) * len(reduced)
	peers := otherRanks(k, rank)
	err = exchange(byteLane(bm), tag, rank, peers, peers,
		func(int) []byte { return reduced },
		func(r int, frame []byte) error {
			lo, hi := chunkBounds(len(data), k, r)
			if err := codec.Decode(frame, data[lo:hi]); err != nil {
				return fmt.Errorf("comm: decoding reduced chunk from rank %d: %w", r, err)
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	finishAvg(data, op, k)
	return wire, nil
}

// compressedLanes returns the byte lanes a compressed collective over m
// under op rides, or false when it must take the float path on
// quantized inputs instead: a world of one (quantization must not
// depend on world size — a single rank still pays the codec's accuracy
// cost and keeps its residual trajectory comparable to any other
// world's — and the float collectives are no-ops there), a mesh
// without byte lanes, or an op other than Sum/Avg.
func compressedLanes(m transport.Mesh, op ReduceOp) (transport.ByteMesh, bool) {
	if m.Size() == 1 || (op != Sum && op != Avg) {
		return nil, false
	}
	return transport.ByteLanes(m)
}

// compressedReduceScatterChunks is stage 1 of the compressed schedule —
// a compressed reduce-scatter over chunkBounds chunks, in place: every
// rank encodes each peer's chunk of data (with its slice of the
// error-feedback residual) and ships frame j to rank j, and leaves in
// its own chunk of data the EXACT float32 fold, in rank order, of the k
// dequantized contributions — every one of them, its own included,
// passed through the same quantization. The caller decides whether to
// re-quantize that fold (compressedAllReduce's stage 2) or consume it
// exactly (the ZeRO-2/3 gradient-shard path, where the reduced chunk
// feeds the local optimizer shard and is never re-broadcast). The other
// chunks of data are not modified. Returned are the encoded payload
// bytes this rank put on the byte lanes; every pooled buffer used here
// has gone back by the time the function returns.
//
// Rank 0's contribution opens the fold, so it is quantized in place.
// Any other rank quantizes its own into a side buffer — while its frames
// and rank 0's are in flight — and adds it when its turn in the order
// comes; peers' frames are decode-added as they arrive.
func compressedReduceScatterChunks(m transport.Mesh, bm transport.ByteMesh, tag uint64, data []float32, codec WireCodec, residual []float32) (int, error) {
	k, rank := m.Size(), m.Rank()
	chunk := func(j int) (d, res []float32) {
		lo, hi := chunkBounds(len(data), k, j)
		if residual != nil {
			res = residual[lo:hi]
		}
		return data[lo:hi], res
	}
	acc, accRes := chunk(rank)
	own := acc
	if rank > 0 {
		own = transport.GetFloats(len(acc))
		defer transport.PutFloats(own)
	}
	wire := 0
	encs := make([][]byte, k)
	err := exchange(byteLane(bm), tag, rank, otherRanks(k, rank), allRanks(k),
		func(j int) []byte {
			if j == rank {
				codec.Encode(nil, acc, accRes, own)
				return nil
			}
			d, res := chunk(j)
			encs[j] = encodePooled(codec, d, res, nil)
			wire += len(encs[j])
			return encs[j]
		},
		func(r int, frame []byte) error {
			var err error
			switch {
			case r == rank:
				if rank > 0 {
					reduceInto(acc, own, Sum)
				}
			case r == 0:
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
