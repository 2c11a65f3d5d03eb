package comm

import (
	"time"

	"repro/internal/transport"
)

// The sharded collectives are the in-place, uneven-chunk primitives
// ZeRO-style data parallelism (internal/fsdp) builds on. They are the
// two halves of the ring AllReduce exposed separately, literally:
// ReduceScatterV is one ringSteps pass that folds (chunk c travels
// x[c+1], ..., x[c-1] and takes its last fold, x[c], on its owner, rank
// c), AllGatherV one pass that copies, and ringAllReduceSteps is the
// first followed by the second — or, between two ranks, one exchange
// that evaluates the same expressions. A reduce-scatter + local-update
// + all-gather sequence therefore produces bitwise the parameter values
// a DDP AllReduce + full local update would have — the property the
// DDP-vs-ZeRO agreement suites assert.

// ChunkBounds is the shard layout of the sharded collectives: n
// elements over k ranks split into nearly-equal chunks with the
// remainder spread over the lowest-indexed chunks; it returns the
// [start, end) of chunk i. Rank r owns chunk r. This is exactly the
// chunking the ring AllReduce reduces over, exported so sharded
// callers (fsdp, tests) can address their shard.
func ChunkBounds(n, k, i int) (int, int) { return chunkBounds(n, k, i) }

// ShardedGroup is the optional interface for the in-place sharded
// collectives. Mesh-backed groups implement it; capability-probe with
// a type assertion.
type ShardedGroup interface {
	ProcessGroup
	// ReduceScatterV reduces data in place across ranks over the
	// ChunkBounds layout: after Wait, data[ChunkBounds(len, Size, Rank)]
	// holds the full reduction (scaled for Avg); the other chunks hold
	// partial folds and must be treated as garbage. The owned chunk's
	// value is bitwise what a ring AllReduce would have left there.
	ReduceScatterV(data []float32, op ReduceOp) Work
	// AllGatherV distributes owned chunks in place: each rank
	// contributes data[its ChunkBounds chunk], and after Wait every
	// rank holds every chunk, copied verbatim.
	AllGatherV(data []float32) Work
	// CompressedReduceScatterV is ReduceScatterV through codec's byte
	// lanes with error feedback: contributions are quantized once (the
	// sender's residual slice absorbing the error), the fold is exact,
	// and the owned chunk is NOT re-quantized. residual is nil or a
	// caller-owned accumulator of len(data), committed only on success.
	// Like CompressedAllReduce it rides the byte lanes or fails with
	// ErrCompressionUnsupported.
	CompressedReduceScatterV(data []float32, op ReduceOp, codec Codec, residual []float32) Work
}

// ReduceScatterV implements the sharded reduce-scatter on the
// mesh-backed group. It always runs the flat ring schedule regardless
// of the group's configured Algorithm: the bitwise DDP-vs-ZeRO
// agreement contract is defined against the ring fold chain, and a
// topology-dependent schedule here would silently break it.
func (g *meshGroup) ReduceScatterV(data []float32, op ReduceOp) Work {
	if err := op.check(); err != nil {
		return CompletedWork(err)
	}
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := ringReduceScatterOwned(g.mesh, tag, data, op)
		observeCollective("reduce_scatter_v", len(data), start, err)
		return err
	})
}

// AllGatherV implements the sharded all-gather on the mesh-backed
// group (flat ring; see ReduceScatterV for why).
func (g *meshGroup) AllGatherV(data []float32) Work {
	return g.submit(func(tag uint64) error {
		start := time.Now()
		err := ringAllGatherOwned(g.mesh, tag, data)
		observeCollective("all_gather_v", len(data), start, err)
		return err
	})
}

// CompressedReduceScatterV implements the compressed sharded
// reduce-scatter, with the same transactional residual and the same
// refusal as CompressedAllReduce (see residualBackup,
// ErrCompressionUnsupported): stage 1 of the compressed AllReduce
// schedule (compressedReduceScatterChunks), which leaves the exact fold
// in the owner chunk, scaled here for Avg — no second quantization,
// since the reduced gradient shard feeds a local optimizer and never
// rides the wire again.
func (g *meshGroup) CompressedReduceScatterV(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return g.ReduceScatterV(data, op)
	}
	return g.submitCompressed(data, op, codec, residual,
		func(start time.Time) { observeCollective("compressed_reduce_scatter_v", len(data), start, nil) },
		func(bm transport.ByteMesh, tag uint64) (int, error) {
			k, rank := g.Size(), g.Rank()
			wire, err := compressedReduceScatterChunks(bm, tag, rank, allRanks(k), data, codec, residual)
			if err != nil {
				return 0, err
			}
			lo, hi := chunkBounds(len(data), k, rank)
			finishAvg(data[lo:hi], op, k)
			return wire, nil
		})
}

// ringReduceScatterOwned is the ring reduce-scatter: rank r ends with
// the full reduction in data[chunkBounds(n, k, r)], scaled for Avg —
// bitwise the value ringAllReduce leaves there, being its first half.
// The other chunks hold partial folds.
func ringReduceScatterOwned(m transport.Mesh, tag uint64, data []float32, op ReduceOp) error {
	k, rank := m.Size(), m.Rank()
	if err := runSteps(m, tag, "ring reduce-scatter", data, op, ringSteps(rank, k, len(data), rank-1, true)); err != nil {
		return err
	}
	lo, hi := chunkBounds(len(data), k, rank)
	finishAvg(data[lo:hi], op, k)
	return nil
}

// ringAllGatherOwned is the in-place ring all-gather over the owner
// layout: each rank enters holding chunk rank and leaves holding every
// chunk, all copies verbatim.
func ringAllGatherOwned(m transport.Mesh, tag uint64, data []float32) error {
	rank := m.Rank()
	return runSteps(m, tag, "ring all-gather", data, Sum, ringSteps(rank, m.Size(), len(data), rank, false))
}

var _ ShardedGroup = (*meshGroup)(nil)
