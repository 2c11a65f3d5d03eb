package autograd

import (
	"fmt"
	"runtime"

	"repro/internal/tensor"
)

// pendingGrad is a gradient on its way down the graph. owned means the
// engine holds the only reference to t's storage, so it may accumulate
// into t in place or install t as a leaf's Grad; a tensor that is not
// owned (the caller's seed, or one gradient handed to several inputs)
// is only ever read.
type pendingGrad struct {
	t     *tensor.Tensor
	owned bool
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
	seedOwned := grad == nil
	if grad == nil {
		if root.Value.Size() != 1 {
			panic(fmt.Sprintf("autograd: Backward without explicit gradient on tensor of %d elements", root.Value.Size()))
		}
		grad = tensor.Ones(root.Value.Shape()...)
	}
	if !grad.SameShape(root.Value) {
		panic(fmt.Sprintf("autograd: gradient shape %v does not match root %v", grad.Shape(), root.Value.Shape()))
	}
	if root.node == nil {
		if root.requiresGrad {
			root.accumulate(pendingGrad{grad, seedOwned})
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

	grads := map[*Variable]pendingGrad{root: {grad, seedOwned}}
	pending := uses // alias: pending contributions remaining per variable
	queue := []*Variable{root}
	var req []request

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
			if in.gradDst != nil && in.node == nil && in.Grad == nil && pending[in] == 1 {
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
		for i, in := range v.node.inputs {
			gi := inGrads[i]
			if gi != nil && in.requiresGrad {
				if !gi.SameShape(in.Value) {
					panic(fmt.Sprintf("autograd: op %s produced gradient shape %v for input shape %v", v.node.op, gi.Shape(), in.Value.Shape()))
				}
				if acc, ok := grads[in]; !ok {
					grads[in] = pendingGrad{gi, ownedOutput(g, inGrads, i)}
				} else if acc.owned {
					tensor.AddInPlace(acc.t, gi)
				} else {
					grads[in] = pendingGrad{tensor.Add(acc.t, gi), true}
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
}

// ownedOutput reports whether outs[i], returned by a backward function
// that was given g, is the engine's alone: it shares storage with no
// other output, and if it is g (or a view of g) the engine owned g,
// whose own entry is gone by now.
func ownedOutput(g pendingGrad, outs []*tensor.Tensor, i int) bool {
	for j, o := range outs {
		if j != i && o != nil && o.SharesStorage(outs[i]) {
			return false
		}
	}
	return g.owned || !outs[i].SharesStorage(g.t)
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
