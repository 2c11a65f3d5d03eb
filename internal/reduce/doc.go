// Package reduce is the gradient-reduction engine shared by the data
// parallel wrappers: the bucket bookkeeping of the paper's Section 4.2
// (parameter-to-bucket assignment, pending counts, the in-order launch
// prefix of Fig 3(a), error-feedback residuals kept in bucket layout)
// extracted from internal/ddp and parameterized by the collective it
// launches. Assignment's ToBucket and ToModel are the one copy between a
// bucket's flat layout and the model's parameter order.
//
// internal/ddp plugs in an AllReduce launcher and gets exactly its old
// reducer back; internal/fsdp plugs in a ReduceScatterV launcher and
// gets ZeRO-style gradient sharding with the identical bucket layout,
// launch order, and residual semantics — which is what makes the
// bitwise DDP-vs-ZeRO agreement suites possible.
//
// The engine deliberately knows nothing about autograd, models, or
// process groups: callers put each gradient in its slot (having the
// kernel that produces it write through Slot, or CopyIn), signal
// readiness (MarkReady), and the engine launches the collective
// returned by the configured launcher over the maximal in-order prefix
// of ready buckets, so the collective sequence is identical on every
// rank regardless of local gradient arrival order.
package reduce
