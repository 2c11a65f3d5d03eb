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
	// Generic fallback: quantize in place, reduce exactly. The residual
	// is committed only if the AllReduce succeeds (see the meshGroup
	// method for why a failed collective must not update it).
	var pre []float32
	if residual != nil {
		pre = append([]float32(nil), residual...)
	}
	if err := quantizeThrough(codec, data, residual); err != nil {
		if residual != nil {
			copy(residual, pre)
		}
		return CompletedWork(err)
	}
	w := pg.AllReduce(data, op)
	if residual == nil {
		return w
	}
	return &residualGuard{inner: w, residual: residual, pre: pre}
}

// residualGuard rolls a residual vector back to its pre-collective
// contents when the wrapped Work fails.
type residualGuard struct {
	inner    Work
	once     sync.Once
	residual []float32
	pre      []float32
	err      error
}

// Wait reports the wrapped collective's result, undoing the residual
// update on failure.
func (w *residualGuard) Wait() error {
	w.once.Do(func() {
		w.err = w.inner.Wait()
		if w.err != nil {
			copy(w.residual, w.pre)
		}
	})
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
		func(tag uint64, shadow []float32) (int, error) {
			return compressedAllReduce(g.mesh, tag, data, op, codec, shadow, algo, g.topo)
		})
}

// submitCompressed submits one compressed collective. run receives the
// reserved tag and the residual to update, and returns the encoded
// bytes this rank shipped; observe records the success.
//
// Residual updates are transactional: the collective runs against a
// shadow copy that is committed only on success. A collective aborted
// mid-flight (the elastic failure path) transmitted nothing, so the
// residual must not claim it did — a half-updated accumulator would
// skew every subsequent gradient, and nondeterministically, since the
// abort point depends on timing.
func (g *meshGroup) submitCompressed(data []float32, codec WireCodec, residual []float32, observe func(start time.Time), run func(tag uint64, shadow []float32) (int, error)) Work {
	if residual != nil && len(residual) != len(data) {
		return CompletedWork(fmt.Errorf("comm: residual has %d elements for %d data elements", len(residual), len(data)))
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		shadow := residual
		if residual != nil {
			shadow = transport.GetFloats(len(residual))
			defer transport.PutFloats(shadow)
			copy(shadow, residual)
		}
		wire, err := run(tag, shadow)
		if err != nil {
			return err
		}
		copy(residual, shadow)
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
// residual under error feedback.
func quantizeThrough(codec WireCodec, data, residual []float32) error {
	if len(data) == 0 {
		return nil
	}
	frame := encodePooled(codec, data, residual)
	defer transport.PutBytes(frame)
	if err := codec.Decode(frame, data); err != nil {
		return fmt.Errorf("comm: codec %s round trip: %w", codec.Name(), err)
	}
	return nil
}

// encodePooled encodes data into a buffer from the transport's pool;
// the caller hands the frame back with transport.PutBytes once nothing
// reads it any more.
func encodePooled(codec WireCodec, data, residual []float32) []byte {
	return codec.Encode(transport.GetBytes(codec.EncodedSize(len(data)))[:0], data, residual)
}

// compressedAllReduce is the wire-level compressed AllReduce: a
// reduce-scatter + all-gather in which every frame is the codec's byte
// representation riding the transport's byte lanes.
//
// Stage 1 (compressed reduce-scatter): the buffer is split into k
// chunks, chunk j owned by rank j. Every rank encodes each chunk — with
// its slice of the error-feedback residual — and sends frame j to rank
// j. The owner decodes all k contributions (its own included, so every
// contribution passes through the same quantization) and folds them in
// rank order.
//
// Stage 2 (compressed all-gather): each owner re-encodes its reduced
// chunk (no residual: this second quantization is of the already-
// reduced sum) and broadcasts the frame; every rank — the owner too —
// decodes the identical bytes, so all ranks finish bitwise-identical,
// the invariant DDP's replica consistency rests on.
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
		if err := quantizeThrough(codec, data, residual); err != nil {
			return 0, err
		}
		return 0, allReduce(m, tag, algo, topo, data, op)
	}
	k, rank := m.Size(), m.Rank()

	// Compressed leader ring: with a hierarchical topology, keep the
	// intra-host (and intra-level) phases exact and compress only the
	// outermost leader ring, where every byte crosses the network.
	if algo == Hierarchical && topo != nil && topo.Size() == k && topo.Hierarchical() {
		return hierarchicalAllReduce(m, tag, data, op, topo, codec, residual)
	}

	acc, wire, err := compressedReduceScatterChunks(m, bm, tag, data, codec, residual)
	if err != nil {
		return 0, err
	}

	// Stage 2: broadcast the re-encoded reduced chunk; decode everyone's
	// (own included — all ranks must hold the decode of the same bytes).
	reduced := encodePooled(codec, acc, nil)
	transport.PutFloats(acc)
	defer transport.PutBytes(reduced) // exchange has joined every send by then
	wire += (k - 1) * len(reduced)
	err = exchange(byteLane(bm), tag, rank, otherRanks(k, rank), allRanks(k),
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
// a compressed reduce-scatter over chunkBounds chunks: every rank
// encodes each chunk of data (with its slice of the error-feedback
// residual) and ships frame j to rank j; the owner decodes all k
// contributions (its own included, so every contribution passes through
// the same quantization) and folds them in rank order.
//
// It returns the EXACT float32 fold of the decoded contributions for
// this rank's own chunk — the caller decides whether to re-quantize it
// (compressedAllReduce's stage 2) or consume it exactly (the ZeRO-2/3
// gradient-shard path, where the reduced chunk feeds the local
// optimizer shard and is never re-broadcast) — plus the encoded payload
// bytes this rank put on the byte lanes. data itself is not modified.
// The fold is a buffer from the transport's pool, the caller's to hand
// back (transport.PutFloats); every other buffer used here has gone
// back by the time the function returns.
func compressedReduceScatterChunks(m transport.Mesh, bm transport.ByteMesh, tag uint64, data []float32, codec WireCodec, residual []float32) ([]float32, int, error) {
	k, rank := m.Size(), m.Rank()
	n := len(data)
	wire := 0

	encs := make([][]byte, k)
	for j := 0; j < k; j++ {
		lo, hi := chunkBounds(n, k, j)
		var res []float32
		if residual != nil {
			res = residual[lo:hi]
		}
		encs[j] = encodePooled(codec, data[lo:hi], res)
		if j != rank {
			wire += len(encs[j])
		}
	}

	lo, hi := chunkBounds(n, k, rank)
	acc := transport.GetFloats(hi - lo)
	scratch := transport.GetFloats(hi - lo)
	err := exchange(byteLane(bm), tag, rank, otherRanks(k, rank), allRanks(k),
		func(j int) []byte { return encs[j] },
		func(r int, frame []byte) error {
			dst := acc
			if r > 0 {
				dst = scratch
			}
			if err := codec.Decode(frame, dst); err != nil {
				return fmt.Errorf("comm: decoding chunk contribution from rank %d: %w", r, err)
			}
			if r > 0 {
				reduceInto(acc, scratch, Sum)
			}
			return nil
		})
	// exchange has joined every send: nothing reads the frames any more.
	for _, enc := range encs {
		transport.PutBytes(enc)
	}
	transport.PutFloats(scratch)
	if err != nil {
		transport.PutFloats(acc)
		return nil, 0, err
	}
	return acc, wire, nil
}

var _ GradientCompressor = (*meshGroup)(nil)
var _ GradientCompressor = (*RoundRobin)(nil)
