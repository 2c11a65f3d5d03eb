// Package fsdp implements fully sharded data parallelism — the
// ZeRO-style sharded training the paper's Section 7 positions against
// replicated DDP — on the same reduce.Engine that powers internal/ddp.
//
// Two strategies share one code path:
//
//   - ZeRO-2: parameters stay replicated; gradients are ReduceScattered
//     so each rank owns the averaged gradient — and the momentum state —
//     for only its chunk of every bucket, updates its parameter chunk,
//     and AllGathers the updated parameters.
//   - ZeRO-3: additionally shards the parameters themselves. Each rank
//     persistently holds only its owned chunk per bucket; full
//     parameters exist transiently, gathered bucket by bucket ahead of
//     each unit's forward and (via an autograd backward-hook identity
//     op) ahead of each unit's backward, and freed as soon as the last
//     consumer has run.
//
// Parameter storage: the wrapper keeps one flat per bucket and re-points
// every parameter's Value at its range of it, so AllGatherV fills the
// tensors the layers read, the optimizer updates the owned chunk where
// it stands, and freeing a bucket zeroes the ranges outside that chunk.
// Nothing is packed, unpacked or allocated per step.
//
// Gradient storage: the engine's bucket flats are transient — drawn from
// the transport pool at a bucket's first gradient, handed back once the
// fused step has consumed the reduced shard. Each parameter's gradient
// destination is its slot of that flat, looked up when the backward
// pass asks (which is what draws the flat), so a weight gradient is
// written by its kernel straight into the buffer ReduceScatterV runs
// on; a gradient that arrives as a tensor of its own is copied in by
// the hook. Every Grad is cleared when Backward returns, failed steps
// included: it may view a flat that has gone back to the pool.
//
// The ZeRO-3 gather schedule is data, emitted once per install/rebind
// (mapUnits): per pass, the buckets in the order the module's units —
// a Sequential's children — first read them, and per unit how far into
// that sequence it reads. Forward and the backward hooks only advance a
// cursor (advance): launch the gathers through what the unit reads plus
// one bucket, then wait for exactly what it reads. Launching before
// waiting keeps the group's serial worker busy while the unit computes;
// the one bucket of look-ahead is all the extra residency it costs
// (Stats.PeakParamBytes ≤ shards + the running unit's buckets + one
// bucket). The last unit's buckets are what backward reads first, so
// forward keeps them gathered: a step launches 2·NumBuckets gathers
// less those. Launches happen on the training goroutine in plan order,
// identically on every rank. A failed gather or buffer broadcast is
// deferred to Backward, which returns it; no gather outlives the step
// that launched it, successful or not.
//
// The bitwise contract: fsdp uses the SAME bucket assignment as DDP
// (reverse registration order, cap-based packing) and comm's sharded
// collectives, whose owned chunk is by construction bitwise the ring
// AllReduce result. The fused optimizer applies the same operation
// sequence as optim.SGD (optim.ShardedMomentumStep). A ZeRO-2 or
// ZeRO-3 run over a Ring process group therefore produces parameters
// bitwise identical to DDP + SGD on the same data — the agreement the
// package tests assert across world sizes, including uneven shard
// tails. Other AllReduce algorithms give self-consistent but different
// trajectories; the agreement suites pin Ring.
//
// Unsupported relative to DDP: no_sync gradient accumulation and
// unused-parameter tracking (every parameter must receive a gradient
// each iteration), both of which interact with the fused
// reduce-and-step in ways ZeRO's schedule cannot hide.
package fsdp
