// Package nn provides neural network modules in the style of
// torch.nn: composable layers holding named parameters and buffers.
//
// Parameter registration order matters: DistributedDataParallel assigns
// parameters to gradient buckets in the reverse of Parameters() order,
// on the assumption that layers are registered roughly in forward
// invocation order (Section 3.2.3 of the paper).
package nn

import (
	"fmt"

	"repro/internal/autograd"
	"repro/internal/tensor"
)

// Parameter is a learnable tensor: an autograd leaf with a name.
type Parameter struct {
	Name string
	*autograd.Variable
}

// NewParameter wraps t as a named learnable parameter.
func NewParameter(name string, t *tensor.Tensor) *Parameter {
	return &Parameter{Name: name, Variable: autograd.NewNamedLeaf(name, t, true)}
}

// Buffer is module state that is not learned but must stay consistent
// across replicas, e.g. BatchNorm running statistics. DDP broadcasts
// buffers from rank 0 before each synchronized forward pass.
type Buffer struct {
	Name string
	Data *tensor.Tensor
}

// Module is the interface all layers and containers implement.
type Module interface {
	// Forward computes the layer output and records the autograd graph.
	// It lets no Variable it creates escape except its return value —
	// none is kept in the module or handed out otherwise — so that once
	// a backward pass over the result is done, a wrapper may hand every
	// intermediate's storage back to the buffer pool (autograd.Release).
	Forward(x *autograd.Variable) *autograd.Variable
	// Parameters returns learnable parameters in registration order.
	Parameters() []*Parameter
	// Buffers returns non-learnable state in registration order.
	Buffers() []*Buffer
	// SetTraining switches between training and evaluation behaviour
	// (dropout, batch-norm statistics).
	SetTraining(training bool)
}

// ZeroGrad clears the gradients of all parameters of m.
func ZeroGrad(m Module) {
	for _, p := range m.Parameters() {
		p.ZeroGrad()
	}
}

// NumParams returns the total element count across parameters, i.e. the
// model size the paper reports (ResNet50 ≈ 25.6M, BERT ≈ 340M).
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Parameters() {
		n += p.Value.Size()
	}
	return n
}

// CopyParameters copies parameter values from src to dst, which must
// have identical parameter layouts. Used to align replicas at
// construction (the paper's rank-0 broadcast of model state).
func CopyParameters(dst, src Module) error {
	dp, sp := dst.Parameters(), src.Parameters()
	if len(dp) != len(sp) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if dp[i].Value.Size() != sp[i].Value.Size() {
			return fmt.Errorf("nn: parameter %d size mismatch", i)
		}
		dp[i].Value.CopyFrom(sp[i].Value)
	}
	db, sb := dst.Buffers(), src.Buffers()
	if len(db) != len(sb) {
		return fmt.Errorf("nn: buffer count mismatch %d vs %d", len(db), len(sb))
	}
	for i := range db {
		db[i].Data.CopyFrom(sb[i].Data)
	}
	return nil
}

// leafModule provides the no-op pieces of Module for stateless layers.
type leafModule struct{}

func (leafModule) Parameters() []*Parameter { return nil }
func (leafModule) Buffers() []*Buffer       { return nil }
func (leafModule) SetTraining(bool)         {}
