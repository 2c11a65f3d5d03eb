// Package fsdp implements fully sharded data parallelism — the
// ZeRO-style sharded training the paper's Section 7 positions against
// replicated DDP — on the same reduce.Engine that powers internal/ddp.
//
// There is one mechanism. Gradients are ReduceScattered so each rank
// owns the averaged gradient — and the momentum state — for only its
// chunk of every bucket, and updates its parameter chunk in place. Each
// rank persistently holds only its owned chunk of the parameters too;
// full parameters exist transiently, gathered bucket by bucket ahead of
// each unit's forward and (via an autograd backward-hook identity op)
// ahead of each unit's backward, and freed once the step's plan no
// longer holds them. The two strategies are presets of the plan's
// memory budget (replica.Budget), and nothing else:
//
//   - ZeRO-2 may hold the whole model: every bucket is gathered once a
//     step, all launched ahead of the first unit, and freed on its last
//     gradient — ZeRO-2's traffic and peak residency.
//   - ZeRO-3 holds the largest unit's buckets plus one more
//     (reduce.PrefetchBudget): a bucket is gathered shortly before it is
//     read, and gathered again for backward where the plan dropped it.
//
// Parameter storage: the wrapper keeps one flat per bucket and re-points
// every parameter's Value at its range of it, so a gather fills the
// tensors the layers read, the optimizer updates the owned chunk where
// it stands, and freeing a bucket zeroes the ranges outside that chunk.
// Nothing is allocated per step.
//
// Gradient storage: the engine's bucket flats are transient — drawn from
// the buffer pool at a bucket's first gradient, handed back once the
// fused step has consumed the reduced shard. Each parameter's gradient
// destination is its slot of that flat, looked up when the backward
// pass asks (which is what draws the flat), so a weight gradient is
// written by its kernel straight into the buffer ReduceScatterV runs
// on; a gradient that arrives as a tensor of its own is copied in by
// the hook. Every Grad is cleared when Backward returns, failed steps
// included: it may view a flat that has gone back to the pool.
//
// The gather schedule is data, one reduce.Plan per step, emitted per
// install/rebind and once more when the link is measured (mapUnits,
// reduce.PlanStep within the preset's budget) over the step's visits —
// the forward visits of the module's units (replica.Units) in order,
// then their backward visits in reverse: its Gathers, each an
// AllGatherV submitted at one visit and waited for by the first that
// reads one of its buckets, and the buckets to drop after each visit. A
// visit only moves a cursor over Gathers (advance): it launches what it
// submits, then lands what it waits for, so the group's serial worker
// stays busy while the unit computes. Reduces launch by readiness
// (reduce.Engine), which also tells that every parameter got its
// gradient. Every rank derives the same plan, so every rank submits the
// same collectives in the same order: as installed, the ones
// replica.Schedule lists, which simnet prices; and every plan passes
// reduce.Step.Check. A failed gather or buffer broadcast is deferred to
// Backward, which returns it; no gather outlives the step that launched
// it.
//
// Launch groups: gathers launched at one visit can be one entry of
// Gathers, one AllGatherV, paying one collective's latency. As installed
// the plan joins only those read first by one visit, so no visit waits
// for a transfer it does not read. Over its first synchronized steps the
// wrapper measures how long each visit computes and how long its gathers
// take (the group's ring), every rank fits one link from every rank's
// samples, and the plan is made once more for it: a gather also joins
// the entry launched before it when the compute between their first
// readers is shorter than the link's fixed cost (reduce.PlanStep has the
// derivation). A Rebind measures afresh. A group of one bucket is
// gathered in place on its flat; one of several on a staging buffer of
// the entry's Elems, whose r-th of w equal parts holds rank r's chunks
// of its buckets, each padded to its bucket's largest chunk: copied in
// at launch, every peer's copied out into the flats when the gather
// lands (restage). A failed group gather leaves all its buckets
// sharded. The staging, a buffer per group of several as all may be in
// flight at once, counts toward no residency: Stats.Gathers counts
// bucket gathers, the peaks and budgets buckets.
//
// The bitwise contract: fsdp uses the SAME bucket assignment as DDP
// (reverse registration order, cap-based packing) and comm's sharded
// collectives, whose owned chunk is by construction bitwise the ring
// AllReduce result. The fused optimizer applies the same operation
// sequence as optim.SGD (optim.ShardedMomentumStep). A run under either
// preset over a Ring process group therefore produces parameters
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
