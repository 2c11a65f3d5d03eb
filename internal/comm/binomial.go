package comm

// binomialRelation returns vrank's neighbours in the binomial tree over
// k ranks rooted at vrank 0 — the one tree binomialReduceSteps and
// binomialBroadcastSteps walk, in opposite directions. The parent is
// vrank minus its lowest set bit (-1 for the root); the children are
// vrank+1, vrank+2, vrank+4, ... for every mask below vrank's lowest
// set bit (every mask below the tree's span for the root), clamped to
// k, listed in increasing-mask order.
//
// Direction fixes the traversal order: the reduce folds children in
// increasing-mask order and then sends to the parent, while the
// broadcast receives from the parent and then fans out to children in
// decreasing-mask order (largest subtree first, so deep subtrees start
// earliest). Both orders are deterministic, which is what keeps the
// collectives bitwise-reproducible.
func binomialRelation(vrank, k int) (parent int, children []int) {
	parent = -1
	low := 1
	for low < k {
		low <<= 1
	}
	if vrank != 0 {
		low = vrank & -vrank
		parent = vrank - low
	}
	for mask := 1; mask < low; mask <<= 1 {
		if c := vrank + mask; c < k {
			children = append(children, c)
		}
	}
	return parent, children
}

// binomialReduceSteps is the reduce-up half of treeSteps and of every
// level of hierarchicalSteps: take each child's whole-buffer partial in
// increasing-mask order, folding it in, then ship the accumulated
// buffer to the parent. The accumulation order on each receiver is
// fixed by the tree, so the result on rank 0 is deterministic; every
// other rank is left partially reduced, to be overwritten by the
// broadcast that follows.
func binomialReduceSteps(rank, k, n int) []step {
	parent, children := binomialRelation(rank, k)
	steps := make([]step, 0, len(children)+1)
	for _, c := range children {
		steps = append(steps, step{to: -1, from: c, rHi: n, fold: true})
	}
	if parent >= 0 {
		steps = append(steps, step{to: parent, from: -1, sHi: n})
	}
	return steps
}

// binomialBroadcastSteps walks the same tree top-down, rotated so it is
// rooted at root: take the buffer once from the parent, then forward it
// to the children in decreasing-mask order.
func binomialBroadcastSteps(rank, k, n, root int) []step {
	// Work in a rotated rank space where the root is rank 0.
	parent, children := binomialRelation((rank-root+k)%k, k)
	steps := make([]step, 0, len(children)+1)
	if parent >= 0 {
		steps = append(steps, step{to: -1, from: (parent + root) % k, rHi: n})
	}
	for i := len(children) - 1; i >= 0; i-- {
		steps = append(steps, step{to: (children[i] + root) % k, from: -1, sHi: n})
	}
	return steps
}

// treeSteps is the Tree AllReduce: the binomial reduce onto rank 0, then
// the binomial broadcast of the result back down the same tree.
func treeSteps(rank, k, n int) []step {
	return append(binomialReduceSteps(rank, k, n), binomialBroadcastSteps(rank, k, n, 0)...)
}
