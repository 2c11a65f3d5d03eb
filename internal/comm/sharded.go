package comm

import (
	"time"
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
// topology-dependent schedule here would silently break it. It is
// ringAllReduce's first pass, so the owned chunk, scaled for Avg, is
// bitwise what ringAllReduce leaves there.
func (g *meshGroup) ReduceScatterV(data []float32, op ReduceOp) Work {
	if err := op.check(); err != nil {
		return CompletedWork(err)
	}
	k, rank := g.Size(), g.Rank()
	return g.submit(func(tag uint64) error {
		start := time.Now()
		_, err := runSteps(run{m: g.mesh, rank: rank, tag: tag, name: "ring reduce-scatter", data: data, op: op}, ringSteps(rank, k, len(data), rank-1, true))
		if err == nil {
			lo, hi := chunkBounds(len(data), k, rank)
			finishAvg(data[lo:hi], op, k)
		}
		observeCollective("reduce_scatter_v", len(data), start, err)
		return err
	})
}

// AllGatherV implements the sharded all-gather on the mesh-backed
// group (flat ring; see ReduceScatterV for why).
func (g *meshGroup) AllGatherV(data []float32) Work {
	return g.submit(func(tag uint64) error {
		start := time.Now()
		rank := g.Rank()
		_, err := runSteps(run{m: g.mesh, rank: rank, tag: tag, name: "ring all-gather", data: data}, ringSteps(rank, g.Size(), len(data), rank, false))
		observeCollective("all_gather_v", len(data), start, err)
		return err
	})
}

// CompressedReduceScatterV implements the compressed sharded
// reduce-scatter, with the same transactional residual, the same
// refusal and the same submission-time contribution frames as
// CompressedAllReduce (see backUpResidual, ErrCompressionUnsupported,
// run.launch): stage 1 of the compressed AllReduce schedule
// (compressedScatterSteps), which leaves the exact fold in the owner
// chunk, scaled here for Avg — no second quantization, since the reduced
// gradient shard feeds a local optimizer and never rides the wire again.
func (g *meshGroup) CompressedReduceScatterV(data []float32, op ReduceOp, codec Codec, residual []float32) Work {
	if codec == nil {
		return g.ReduceScatterV(data, op)
	}
	k, rank, n := g.Size(), g.Rank(), len(data)
	r := run{rank: rank, name: "compressed reduce-scatter", data: data, op: op, codec: codec, residual: residual, parts: k}
	lo, hi := chunkBounds(n, k, rank)
	return g.submitCompressed(r, compressedScatterSteps(rank, k, n), data[lo:hi],
		func(elems int, start time.Time) { observeCollective("compressed_reduce_scatter_v", elems, start, nil) })
}

var _ ShardedGroup = (*meshGroup)(nil)
