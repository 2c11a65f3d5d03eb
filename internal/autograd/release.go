package autograd

import "sync/atomic"

// walks numbers the release walks, so that marking a variable reached
// (Variable.seen) or kept (Variable.kept) needs no set: a walk
// allocates nothing.
var walks atomic.Uint64

// Release hands the storage of every intermediate between input and out
// back to the buffer pool: the Value of every variable an op produced
// that out reaches without passing through input. It is for the end of
// a training step, once Backward has run over the graph and nothing
// will read its forward values again — replica.Core calls it after a
// Backward that succeeded, with a Forward's input and return value.
//
// It never hands back out, input or a leaf, nor storage any of them
// shares: an op whose output is a view of an input (Reshape,
// BackwardHook, InPool) owns no storage of its own, so only the variable
// at the bottom of a chain of views hands that storage back — once, and
// only if out is not a view of it. Every intermediate but out and the
// views it is made of is detached (see tensor.Tensor.Release and
// Detach), a view of a leaf as much as a variable whose storage went
// back: a late read panics instead of reading a later step's numbers.
// Releasing a graph a second time does nothing.
//
// The variables out reaches must not be reachable from any other
// goroutine's graph while Release runs.
func Release(out, input *Variable) { release(out, input, true) }

// release is Release, and with keepOut false also hands back out's own
// storage (Checkpoint's recomputed segment, whose output nobody keeps).
func release(out, input *Variable, keepOut bool) {
	walk := walks.Add(1)
	for v := out; keepOut && v.node != nil && v != input; v = v.node.inputs[v.node.alias] {
		v.kept = walk
		if v.node.alias < 0 {
			break
		}
	}
	releaseBelow(out, input, walk)
}

func releaseBelow(v, input *Variable, walk uint64) {
	if v.node == nil || v == input || v.seen == walk {
		return
	}
	v.seen = walk
	switch {
	case v.kept == walk:
	case v.node.alias < 0:
		v.Value.Release()
	case v.Value != v.node.inputs[v.node.alias].Value:
		v.Value.Detach() // a header of its own (BackwardHook shares its input's)
	}
	for _, in := range v.node.inputs {
		releaseBelow(in, input, walk)
	}
}
