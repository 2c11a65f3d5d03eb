package autograd_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/buffer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The alias audit. Backward hands gradients on without copying, which
// is only sound if every backward function keeps node.backward's
// contract. The audit runs every op, and the attention layers built
// from them, and checks what the contract buys: after Backward no two
// leaves' Grad share storage, and no Grad shares storage with a forward
// Value or with the caller's seed. A new op must be added to auditOps —
// TestAuditCoversEveryOp parses the package and fails otherwise.

// auditCase builds one graph over fresh leaves. Every tensor input is
// a leaf that requires grad, so every gradient the op can produce is
// installed somewhere the audit looks.
type auditCase struct {
	shapes [][]int
	build  func(l []*autograd.Variable) *autograd.Variable
}

func unary(op func(*autograd.Variable) *autograd.Variable, shape ...int) auditCase {
	return auditCase{[][]int{shape}, func(l []*autograd.Variable) *autograd.Variable { return op(l[0]) }}
}

func binary(op func(a, b *autograd.Variable) *autograd.Variable, a, b []int) auditCase {
	return auditCase{[][]int{a, b}, func(l []*autograd.Variable) *autograd.Variable { return op(l[0], l[1]) }}
}

var auditOps = map[string]auditCase{
	"Add":          binary(autograd.Add, []int{2, 3}, []int{2, 3}),
	"AddRow":       binary(autograd.AddRow, []int{2, 3}, []int{3}),
	"MatMul":       binary(autograd.MatMul, []int{2, 3}, []int{3, 4}),
	"MatMulTransB": binary(autograd.MatMulTransB, []int{2, 3}, []int{4, 3}),
	"AddChannel":   binary(autograd.AddChannel, []int{2, 3, 2, 2}, []int{3}),
	"MSELoss":      binary(autograd.MSELoss, []int{2, 3}, []int{2, 3}),
	"Relu":         unary(autograd.Relu, 2, 3),
	"Tanh":         unary(autograd.Tanh, 2, 3),
	"Gelu":         unary(autograd.Gelu, 2, 3),
	"Sum":          unary(autograd.Sum, 2, 3),
	"SoftmaxRows":  unary(autograd.SoftmaxRows, 2, 3),
	"MaxPool2D":    unary(autograd.MaxPool2D, 1, 2, 4, 4),
	"MulScalar": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.MulScalar(a, 0.5)
	}, 2, 3),
	"CrossEntropyLoss": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.CrossEntropyLoss(a, []int{0, 2})
	}, 2, 3),
	"SliceCols": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.SliceCols(a, 1, 3)
	}, 2, 4),
	"Reshape": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.Reshape(a, 3, 2)
	}, 2, 3),
	"BackwardHook": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.BackwardHook(a, func() {})
	}, 2, 3),
	"InPool": unary(func(a *autograd.Variable) *autograd.Variable {
		return autograd.InPool(a, buffer.NewFloats())
	}, 2, 3),
	"Concat": {[][]int{{2, 2}, {2, 3}}, func(l []*autograd.Variable) *autograd.Variable {
		return autograd.Concat(l[0], l[1], l[0])
	}},
	"Conv2D": {[][]int{{1, 2, 4, 4}, {3, 2, 3, 3}}, func(l []*autograd.Variable) *autograd.Variable {
		return autograd.Conv2D(l[0], l[1], 1, 1)
	}},
	"BatchNorm": {[][]int{{4, 3}, {3}, {3}}, func(l []*autograd.Variable) *autograd.Variable {
		out, _ := autograd.BatchNorm(l[0], l[1], l[2], nil, nil, 1e-5, true)
		return out
	}},
	"LayerNorm": {[][]int{{2, 3}, {3}, {3}}, func(l []*autograd.Variable) *autograd.Variable {
		return autograd.LayerNorm(l[0], l[1], l[2], 1e-5)
	}},
	// The inner leaf's Grad is what Checkpoint's backward returns; the
	// captured parameter gets its gradient from the nested pass.
	"Checkpoint": {[][]int{{2, 3}, {3, 3}}, func(l []*autograd.Variable) *autograd.Variable {
		return autograd.Checkpoint(func(in *autograd.Variable) *autograd.Variable {
			return autograd.Add(autograd.MatMul(in, l[1]), in)
		}, l[0])
	}},
}

// audit runs Backward from root and checks the no-alias properties
// over the given leaves. A nil seed means a scalar root.
func audit(t *testing.T, name string, root *autograd.Variable, seed *tensor.Tensor, leaves []*autograd.Variable) {
	t.Helper()
	values := autograd.GraphValues(root)
	autograd.Backward(root, seed)
	for i, a := range leaves {
		if a.Grad == nil {
			t.Fatalf("%s: leaf %d got no gradient", name, i)
		}
		if seed != nil && a.Grad.SharesStorage(seed) {
			t.Errorf("%s: leaf %d's Grad shares storage with the caller's seed", name, i)
		}
		for j, b := range leaves[:i] {
			if a.Grad.SharesStorage(b.Grad) {
				t.Errorf("%s: leaves %d and %d share Grad storage", name, j, i)
			}
		}
		for _, v := range values {
			if a.Grad.SharesStorage(v) {
				t.Errorf("%s: leaf %d's Grad shares storage with a forward Value of shape %v", name, i, v.Shape())
			}
		}
	}
}

func freshLeaves(rng *rand.Rand, shapes [][]int) []*autograd.Variable {
	leaves := make([]*autograd.Variable, len(shapes))
	for i, shape := range shapes {
		leaves[i] = autograd.NewLeaf(tensor.RandN(rng, 1, shape...), true)
	}
	return leaves
}

func TestNoGradientAliasesAfterBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, c := range auditOps {
		// The op as the root, seeded by the caller: its backward is
		// handed a gradient the engine does not own.
		leaves := freshLeaves(rng, c.shapes)
		root := c.build(leaves)
		audit(t, name+" as root", root, tensor.Ones(root.Value.Shape()...), leaves)

		// The op under a reduction: its backward is handed a gradient
		// the engine owns and may pass on as is.
		leaves = freshLeaves(rng, c.shapes)
		audit(t, name+" under Sum", autograd.Sum(c.build(leaves)), nil, leaves)

		// The op's output consumed twice: its backward is handed an
		// accumulated gradient, and its inputs may be too.
		leaves = freshLeaves(rng, c.shapes)
		out := c.build(leaves)
		audit(t, name+" consumed twice", autograd.Sum(autograd.Add(out, autograd.Tanh(out))), nil, leaves)
	}
}

func TestNoGradientAliasesInAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	modules := map[string]nn.Module{
		"MultiHeadAttention": nn.NewMultiHeadAttention(rng, "attn", 8, 2),
		"TransformerBlock":   nn.NewTransformerBlock(rng, "block", 8, 2, 16),
	}
	for name, m := range modules {
		x := autograd.NewLeaf(tensor.RandN(rng, 1, 5, 8), true)
		leaves := []*autograd.Variable{x}
		for _, p := range m.Parameters() {
			leaves = append(leaves, p.Variable)
		}
		audit(t, name, autograd.Sum(m.Forward(x)), nil, leaves)
	}
}

// TestAuditCoversEveryOp fails when the package grows an op — an
// exported function that takes and returns a *Variable — that
// auditOps does not exercise.
func TestAuditCoversEveryOp(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	isVariable := func(e ast.Expr) bool {
		if ell, ok := e.(*ast.Ellipsis); ok {
			e = ell.Elt
		}
		star, ok := e.(*ast.StarExpr)
		if !ok {
			return false
		}
		id, ok := star.X.(*ast.Ident)
		return ok && id.Name == "Variable"
	}
	for _, file := range pkgs["autograd"].Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !fn.Name.IsExported() || fn.Type.Results == nil {
				continue
			}
			takes := false
			for _, p := range fn.Type.Params.List {
				takes = takes || isVariable(p.Type)
			}
			if !takes || !isVariable(fn.Type.Results.List[0].Type) {
				continue
			}
			if _, ok := auditOps[fn.Name.Name]; !ok {
				t.Errorf("op %s is not in auditOps", fn.Name.Name)
			}
		}
	}
}
