// Package ddp implements DistributedDataParallel — the paper's core
// contribution (Sections 3.2 and 4.2): gradient bucketing, overlapping
// AllReduce with the backward pass, skipping synchronization (no_sync),
// and globally-unused-parameter detection, on top of the comm package's
// ProcessGroup API. The bucket machinery itself lives in
// internal/reduce, shared with the sharded wrapper in internal/fsdp;
// this package re-exports the assignment types so existing callers
// (bench, simnet, tests) keep working unchanged.
//
// Gradients are born in their bucket: each parameter's slot in the
// engine's flat bucket buffer is registered as its gradient destination
// (autograd.Variable.SetGradDestination), so the backward kernel that
// produces a weight gradient writes it there, autograd installs the
// slot's view as Grad, the AllReduce averages it in place and the
// optimizer reads it where it stands — Algorithm 1's copy into the
// bucket does not happen. The hook still copies a gradient that could
// not be written in place: one accumulated under no_sync or over
// several uses of a parameter, one from an op that allocates its own
// result, one a FindUnusedParameters forward has to stage. Which path a
// gradient takes follows from what the backward pass observes; there is
// no setting.
package ddp

import "repro/internal/reduce"

// Assignment is a parameter-to-bucket mapping (paper Section 4.2,
// "Parameter-to-Bucket Mapping"); see reduce.Assignment.
type Assignment = reduce.Assignment

// ReverseOrder returns the index sequence n-1, n-2, ..., 0 — DDP's
// default expectation that gradients become ready in the reverse of
// model.parameters() order (Section 3.2.3).
func ReverseOrder(n int) []int { return reduce.ReverseOrder(n) }

// AssignBuckets packs parameters into buckets of at most capBytes
// bytes, following `order`; see reduce.AssignBuckets. capBytes <= 0
// means one bucket per parameter — the "0MB bucket" baseline of Figs 7
// and 8.
func AssignBuckets(sizes []int, capBytes, elemBytes int, order []int) (*Assignment, error) {
	return reduce.AssignBuckets(sizes, capBytes, elemBytes, order)
}
