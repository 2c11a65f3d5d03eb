package optim

import "repro/internal/tensor"

// ShardedMomentumStep applies one momentum-SGD update in place to a
// contiguous run of parameter values: the one update loop in this
// package, which SGD.Step and internal/ddp's Replica run over each
// parameter and internal/fsdp over its owned shard of the flattened
// parameter vector. gradAvg holds the already-averaged gradient and
// velocity the matching momentum state (not read when momentum is
// zero); all three slices have equal length.
//
// Per element, in one pass over memory and in this order:
//
//	v = momentum*v + grad    (skipped when momentum is zero; g = v after)
//	p = p - lr*g
//
// torch.optim.SGD's update with dampening 0 and no weight decay, where a
// velocity that starts at zero gives v = g on the first step. Every
// product is rounded to float32 before it is added (the conversions
// below forbid a fused multiply-add on the architectures that have one),
// so the result is bitwise that of separate scale, add and axpy passes
// over the tensors — and a sharded optimizer whose gradient shard is
// bitwise the AllReduce result produces bitwise the parameters a
// replicated SGD would, the equivalence the DDP-vs-ZeRO agreement suites
// assert. Since SGD.Step is this function, the two cannot drift apart.
//
// With momentum it is tensor.MomentumStep: the same two statements, with
// an eight-lane body on amd64 that keeps every bit (ARCHITECTURE.md,
// "Tensor kernels"). The loop below is plain SGD.
func ShardedMomentumStep(shard, gradAvg, velocity []float32, lr, momentum float32) {
	if momentum != 0 {
		tensor.MomentumStep(shard, gradAvg, velocity, lr, momentum)
		return
	}
	// Pinning the length lets the compiler drop the bounds checks in the
	// loop.
	gradAvg = gradAvg[:len(shard)]
	for i := range shard {
		shard[i] -= float32(lr * gradAvg[i])
	}
}
