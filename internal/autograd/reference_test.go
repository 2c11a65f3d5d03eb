package autograd

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// referenceBackward is the clone-always engine Backward replaced, kept
// as the oracle: every gradient is cloned when it is first stored and
// cloned again when it is installed as a leaf's Grad, so nothing can
// alias anything, and every input's gradient is asked for. Backward must produce bitwise the same leaf
// gradients with the copies left out.
func referenceBackward(root *Variable, grad *tensor.Tensor) {
	if grad == nil {
		grad = tensor.Ones(root.Value.Shape()...)
	}
	accumulate := func(v *Variable, g *tensor.Tensor) {
		if v.Grad == nil {
			v.Grad = g.Clone()
		} else {
			tensor.AddInPlace(v.Grad, g)
		}
		for _, h := range v.hooks {
			h(v)
		}
	}
	if root.node == nil {
		if root.requiresGrad {
			accumulate(root, grad)
		}
		return
	}
	pending := make(map[*Variable]int)
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
			pending[in]++
			dfs(in)
		}
	}
	dfs(root)

	grads := map[*Variable]*tensor.Tensor{root: grad.Clone()}
	queue := []*Variable{root}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		g := grads[v]
		delete(grads, v)
		if v.node == nil {
			if v.requiresGrad {
				accumulate(v, g)
			}
			continue
		}
		// The oracle asks for every gradient and offers no destination.
		req := make([]request, len(v.node.inputs))
		for i := range req {
			req[i].need = true
		}
		for i, gi := range v.node.backward(g, req) {
			in := v.node.inputs[i]
			if gi != nil {
				if acc, ok := grads[in]; ok {
					tensor.AddInPlace(acc, gi)
				} else {
					grads[in] = gi.Clone()
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

// diffCase is one graph the two engines are compared on. build
// receives fresh leaves of the listed shapes and returns the root and
// the seed gradient (nil for a scalar root).
type diffCase struct {
	name   string
	shapes [][]int
	build  func(l []*Variable) (*Variable, *tensor.Tensor)
}

// runDiff runs the case under both engines, twice each without
// zeroing in between (the second pass accumulates into the Grad the
// first installed), and compares every leaf gradient bitwise after each
// pass. Backward's leaves have gradient destinations, holding NaN, so
// whichever gradients a case lets be born in place are compared too.
func runDiff(t *testing.T, c diffCase, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	got := make([]*Variable, len(c.shapes))
	want := make([]*Variable, len(c.shapes))
	for i, shape := range c.shapes {
		v := tensor.RandN(rng, 1, shape...)
		got[i], want[i] = NewLeaf(v, true), NewLeaf(v.Clone(), true)
		dst := poisoned(shape...)
		got[i].SetGradDestination(func() *tensor.Tensor { return dst })
	}
	for pass := 0; pass < 2; pass++ {
		root, g := c.build(got)
		Backward(root, g)
		root, g = c.build(want)
		referenceBackward(root, g)
		for i := range got {
			if !testutil.SameBits(got[i].Grad, want[i].Grad) {
				t.Fatalf("%s (seed %d) pass %d: leaf %d gradient %v, reference %v", c.name, seed, pass, i, got[i].Grad, want[i].Grad)
			}
		}
	}
}

func TestBackwardMatchesCloneAlwaysReference(t *testing.T) {
	sq := []int{3, 3}
	cases := []diffCase{
		{"diamond", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			h := Tanh(l[0])
			return Sum(Add(Relu(h), Tanh(h))), nil
		}},
		{"add(x,x)", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Sum(Add(l[0], l[0])), nil
		}},
		{"add(x,x) seeded", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Add(l[0], l[0]), tensor.Full(0.3, 3, 3)
		}},
		{"sub", [][]int{sq, sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return mean(sub(l[0], l[1])), nil
		}},
		{"sub(x,x)", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Sum(sub(Tanh(l[0]), l[0])), nil
		}},
		{"addRow", [][]int{sq, {3}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Sum(AddRow(l[0], l[1])), nil
		}},
		{"addRow twice", [][]int{sq, {3}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Sum(AddRow(AddRow(l[0], l[1]), l[1])), nil
		}},
		{"reshape chain", [][]int{{2, 6}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Reshape(Reshape(Reshape(l[0], 12), 3, 4), 4, 3), tensor.Full(2, 4, 3)
		}},
		{"reshape chain into two consumers", [][]int{{2, 6}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			r := Reshape(l[0], 3, 4)
			return Sum(Add(Reshape(r, 12), Reshape(Tanh(r), 12))), nil
		}},
		{"backward hook", [][]int{sq, sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Sum(Add(BackwardHook(l[0], func() {}), BackwardHook(mul(l[0], l[1]), func() {}))), nil
		}},
		{"checkpoint", [][]int{sq, sq, sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			seg := func(in *Variable) *Variable { return Add(MatMul(Tanh(MatMul(in, l[1])), l[2]), in) }
			return Sum(Add(Checkpoint(seg, l[0]), l[0])), nil
		}},
		{"checkpoint of identity", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Checkpoint(func(in *Variable) *Variable { return Reshape(in, 3, 3) }, l[0]), tensor.Full(0.5, 3, 3)
		}},
		{"concat of slices", [][]int{{3, 4}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			a, b := SliceCols(l[0], 0, 3), SliceCols(l[0], 1, 4)
			return Sum(Concat(a, b, a)), nil
		}},
		{"root is a leaf", [][]int{sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return l[0], tensor.Full(0.25, 3, 3)
		}},
		{"scalar root is a leaf", [][]int{{1}}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return l[0], nil
		}},
		{"seed reaches the leaf through add", [][]int{sq, sq}, func(l []*Variable) (*Variable, *tensor.Tensor) {
			return Add(l[0], l[1]), tensor.Full(-1.5, 3, 3)
		}},
	}
	for _, c := range cases {
		runDiff(t, c, 1)
	}
}

// randomDAG builds a graph of n ops over square leaves plus one row
// leaf: each op draws its inputs from everything built so far (the
// same node twice included), and the root sums the last few nodes, so
// most nodes have several consumers.
func randomDAG(rng *rand.Rand, n int) diffCase {
	const dim = 3
	type pick struct{ op, a, b int }
	picks := make([]pick, n)
	for i := range picks {
		picks[i] = pick{rng.Intn(12), rng.Int(), rng.Int()}
	}
	tails := 1 + rng.Intn(3)
	seeded := rng.Intn(2) == 0
	return diffCase{
		name:   fmt.Sprintf("random dag of %d ops", n),
		shapes: [][]int{{dim, dim}, {dim, dim}, {dim, dim}, {dim}},
		build: func(l []*Variable) (*Variable, *tensor.Tensor) {
			row := l[3]
			nodes := append([]*Variable(nil), l[:3]...)
			for _, p := range picks {
				a, b := nodes[p.a%len(nodes)], nodes[p.b%len(nodes)]
				var v *Variable
				switch p.op {
				case 0:
					v = Add(a, b)
				case 1:
					v = sub(a, b)
				case 2:
					v = mul(a, b)
				case 3:
					v = MatMul(a, b)
				case 4:
					v = Tanh(a)
				case 5:
					v = Relu(a)
				case 6:
					v = AddRow(a, row)
				case 7:
					v = Reshape(Reshape(a, dim*dim), dim, dim)
				case 8:
					v = BackwardHook(a, func() {})
				case 9:
					v = MulScalar(a, 0.5)
				case 10:
					v = Concat(SliceCols(a, 0, 1), SliceCols(b, 1, dim))
				case 11:
					v = Checkpoint(func(in *Variable) *Variable { return Add(Tanh(in), in) }, a)
				}
				nodes = append(nodes, v)
			}
			root := nodes[len(nodes)-1]
			for i := 1; i < tails && i < len(nodes); i++ {
				root = Add(root, nodes[len(nodes)-1-i])
			}
			if seeded {
				return root, tensor.Full(0.125, dim, dim)
			}
			return mean(root), nil
		},
	}
}

func TestBackwardMatchesReferenceOnRandomDAGs(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runDiff(t, randomDAG(rng, 1+rng.Intn(12)), seed)
	}
}

// TestBackwardLeavesTheSeedAlone: the seed is the caller's; Backward
// neither writes it nor installs it (or a view of it) as a Grad.
func TestBackwardLeavesTheSeedAlone(t *testing.T) {
	x := NewLeaf(tensor.Ones(2, 2), true)
	seed := tensor.Full(3, 2, 2)
	for pass := 0; pass < 2; pass++ {
		Backward(Reshape(x, 2, 2), seed)
	}
	if x.Grad.SharesStorage(seed) {
		t.Fatal("leaf Grad is the caller's seed")
	}
	if !seed.Equal(tensor.Full(3, 2, 2)) || !x.Grad.Equal(tensor.Full(6, 2, 2)) {
		t.Fatalf("seed %v (want all 3), grad %v (want all 6)", seed, x.Grad)
	}
}
