package autograd

import "repro/internal/tensor"

// GraphValues returns the forward Value of every variable reachable
// from root, leaves included: what the alias audit checks gradients
// against.
func GraphValues(root *Variable) []*tensor.Tensor {
	var out []*tensor.Tensor
	seen := make(map[*Variable]bool)
	var dfs func(v *Variable)
	dfs = func(v *Variable) {
		if seen[v] {
			return
		}
		seen[v] = true
		out = append(out, v.Value)
		if v.node != nil {
			for _, in := range v.node.inputs {
				dfs(in)
			}
		}
	}
	dfs(root)
	return out
}
