package autograd

import (
	"fmt"
	"runtime"
	"slices"

	"repro/internal/tensor"
)

// pendingGrad is a gradient on its way down the graph, and who holds
// its storage. owned means the engine holds the only reference to t's
// storage, so it may accumulate into t in place or install t as a
// leaf's Grad; a tensor that is not owned is only ever read. The engine
// hands storage it allocated back to the buffer pool once the last
// pending gradient over it is consumed: an owned one at once, a shared
// one (several inputs handed one tensor, as Add hands its gradient to
// both operands) when its share's last holder is. A tensor that is
// neither owned nor shared — the caller's seed, or a view of it — is
// not the engine's to hand back.
type pendingGrad struct {
	t     *tensor.Tensor
	owned bool
	share *share
}

// share counts the pending gradients that hold one tensor the engine
// allocated.
type share struct{ holders int }

// drop ends p's claim on its storage: the last claim on storage the
// engine allocated hands it back to the pool.
func (p pendingGrad) drop() {
	switch {
	case p.owned:
		p.t.Release()
	case p.share != nil:
		if p.share.holders--; p.share.holders == 0 {
			p.t.Release()
		}
	}
}

// Backward runs reverse-mode differentiation from root, seeding the
// root gradient with grad (or ones if grad is nil, which is only allowed
// for one-element roots, matching loss.backward()). grad stays the
// caller's: it is read, never written or retained.
//
// Gradients for leaf variables with RequiresGrad are accumulated into
// their Grad field; post-accumulation hooks fire immediately after each
// leaf's gradient is complete for this pass — leaves therefore become
// "ready" one at a time while the pass is still executing, which is what
// lets DDP overlap AllReduce with the remaining backward computation.
//
// Each backward function is told what is wanted of it (see request): an
// input whose gradient nothing reads — a leaf without RequiresGrad — is
// asked for none, and a leaf whose whole gradient this one call
// produces is offered its registered destination to write it in.
//
// Gradients are handed on, not copied: what a backward function
// returns (see node.backward) is stored as is and, if it reaches a leaf
// with no gradient yet, becomes that leaf's Grad. A copy is made only
// where two holders of one tensor would otherwise see each other's
// writes — when a second contribution must be added to a shared
// tensor, or a shared tensor reaches a leaf. The additions happen in
// the same order, on the same values, as if every hand-off had cloned.
//
// Progress guarantee: Backward yields the processor once after every
// node's backward function, and once after a leaf whose hooks ran, so a
// collective launched from a hook starts at once and gets to run at
// least once per backward node even when every processor is busy
// running a rank. Without the first yield the goroutine a hook has just
// woken, and every later hop of its collective, would wait for the
// runtime's 10 ms forced preemption while this pass computes on; without
// the second a launch waits out the next node's whole backward function
// (~0.8 ms on ddp_bert_shaped) before its first frame leaves.
func Backward(root *Variable, grad *tensor.Tensor) {
	if grad == nil {
		if root.Value.Size() != 1 {
			panic(fmt.Sprintf("autograd: Backward without explicit gradient on tensor of %d elements", root.Value.Size()))
		}
		// A one held like the caller's own seed: it is never written,
		// and one float is not worth a pool round trip.
		grad = tensor.Scalar(1).Reshape(root.Value.Shape()...)
	}
	if !grad.SameShape(root.Value) {
		panic(fmt.Sprintf("autograd: gradient shape %v does not match root %v", grad.Shape(), root.Value.Shape()))
	}
	if root.node == nil {
		if root.requiresGrad {
			root.accumulate(pendingGrad{t: grad})
		}
		return
	}

	// Count, over the subgraph reachable from root, how many consumers
	// each variable has. A variable's gradient is complete once all of
	// its consumers have contributed.
	uses := make(map[*Variable]int)
	visited := make(map[*Variable]bool)
	var dfs func(v *Variable)
	dfs = func(v *Variable) {
		if visited[v] {
			return
		}
		visited[v] = true
		if v.node == nil {
			return
		}
		for _, in := range v.node.inputs {
			uses[in]++
			dfs(in)
		}
	}
	dfs(root)

	grads := map[*Variable]pendingGrad{root: {t: grad}}
	pending := uses // alias: pending contributions remaining per variable
	queue := []*Variable{root}
	var req []request
	var handed []pendingGrad

	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		g := grads[v]
		delete(grads, v)

		if v.node == nil {
			if v.requiresGrad {
				v.accumulate(g)
				if len(v.hooks) > 0 {
					runtime.Gosched()
				}
			}
			continue
		}

		req = req[:0]
		for _, in := range v.node.inputs {
			r := request{need: in.requiresGrad}
			if r.need && in.gradDst != nil && in.node == nil && in.Grad == nil && pending[in] == 1 {
				if _, contributed := grads[in]; !contributed {
					r.into = in.gradDst()
				}
			}
			req = append(req, r)
		}
		inGrads := v.node.backward(g.t, req)
		runtime.Gosched()
		if len(inGrads) != len(v.node.inputs) {
			panic(fmt.Sprintf("autograd: op %s returned %d gradients for %d inputs", v.node.op, len(inGrads), len(v.node.inputs)))
		}
		handed = claim(handed[:0], g, inGrads, v.node.inputs)
		for i, in := range v.node.inputs {
			if gi := inGrads[i]; gi != nil && in.requiresGrad {
				if !gi.SameShape(in.Value) {
					panic(fmt.Sprintf("autograd: op %s produced gradient shape %v for input shape %v", v.node.op, gi.Shape(), in.Value.Shape()))
				}
				switch acc, ok := grads[in]; {
				case !ok:
					grads[in] = handed[i]
				case acc.owned:
					tensor.AddInPlace(acc.t, gi)
					handed[i].drop()
				default:
					grads[in] = pendingGrad{t: tensor.Add(acc.t, gi), owned: true}
					acc.drop()
					handed[i].drop()
				}
			}
			pending[in]--
			if pending[in] == 0 {
				if _, ok := grads[in]; ok {
					queue = append(queue, in)
				}
			}
		}
	}
	// A gradient whose variable never became complete — a consumer of
	// it received no gradient at all — is dropped like any other.
	for _, g := range grads {
		g.drop()
	}
}

// claim decides who holds the storage of what a backward function given
// g returned: handed[i] is output i's pending gradient, the zero value
// for an output the engine does not keep (nil, or for an input that
// requires no gradient). Outputs over one tensor the engine allocated —
// g, or a tensor the function returned for several inputs — share it;
// outputs over the caller's seed stay the caller's. What no kept output
// holds is handed back: g, and an output the function allocated for an
// input that needs no gradient.
func claim(handed []pendingGrad, g pendingGrad, outs []*tensor.Tensor, inputs []*Variable) []pendingGrad {
	handed = slices.Grow(handed[:0], len(outs))[:len(outs)]
	clear(handed)
	// over reports whether output j is kept and views o's storage.
	over := func(j int, o *tensor.Tensor) bool {
		return outs[j] != nil && inputs[j].requiresGrad && outs[j].SharesStorage(o)
	}
	holders := func(o *tensor.Tensor, first int) int {
		n := 0
		for j := first; j < len(outs); j++ {
			if over(j, o) {
				n++
			}
		}
		return n
	}
	// hold hands o's storage, which the engine holds alone, to the kept
	// outputs from first on over it: one owns it, several share it, and
	// with none it goes back to the pool.
	hold := func(o *tensor.Tensor, first int) {
		n := holders(o, first)
		if n == 0 {
			o.Release()
			return
		}
		var sh *share
		if n > 1 {
			sh = &share{holders: n}
		}
		for j := first; j < len(outs); j++ {
			if over(j, o) {
				handed[j] = pendingGrad{t: outs[j], owned: n == 1, share: sh}
			}
		}
	}
	for i, o := range outs {
		if o != nil && !o.SharesStorage(g.t) && !slices.ContainsFunc(outs[:i], func(p *tensor.Tensor) bool { return p != nil && p.SharesStorage(o) }) {
			hold(o, i)
		}
	}
	switch {
	case g.share != nil && g.share.holders > 1:
		g.share.holders += holders(g.t, 0) - 1
		for j := range outs {
			if over(j, g.t) {
				handed[j] = pendingGrad{t: outs[j], share: g.share}
			}
		}
	case g.owned || g.share != nil:
		hold(g.t, 0)
	default:
		for j := range outs {
			if over(j, g.t) {
				handed[j] = pendingGrad{t: outs[j]}
			}
		}
	}
	return handed
}

// Leaves returns every leaf variable reachable from root through the
// autograd graph, in a deterministic discovery order. DDP traverses the
// graph from the forward output exactly this way to find which
// parameters participate in the current iteration (Algorithm 1, line 10).
func Leaves(root *Variable) []*Variable {
	var out []*Variable
	seen := make(map[*Variable]bool)
	var dfs func(v *Variable)
	dfs = func(v *Variable) {
		if seen[v] {
			return
		}
		seen[v] = true
		if v.node == nil {
			if v.requiresGrad {
				out = append(out, v)
			}
			return
		}
		for _, in := range v.node.inputs {
			dfs(in)
		}
	}
	dfs(root)
	return out
}

// LeafSet returns the reachable leaves as a set for O(1) membership tests.
func LeafSet(root *Variable) map[*Variable]bool {
	set := make(map[*Variable]bool)
	for _, v := range Leaves(root) {
		set[v] = true
	}
	return set
}
