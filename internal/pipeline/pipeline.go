// Package pipeline implements GPipe-style pipeline model parallelism —
// the Cross-iteration/Model-parallel scheme of the paper's Table 1 that
// DDP is contrasted with (Section 7). The model is partitioned into
// stages; a mini-batch is split into micro-batches that flow through
// the stages concurrently (the fill/drain schedule), and gradients
// accumulate across micro-batches so the result is mathematically
// equivalent to full-batch training, exactly like GPipe.
//
// Stages run as goroutines connected by channels (standing in for the
// paper's inter-GPU transfers). The backward pass reverses the flow:
// each stage backpropagates its segment and passes the input gradient
// upstream. This substrate composes with the rest of the repository:
// stage boundaries carry plain tensors, and each stage's parameters are
// ordinary nn parameters, so a stage could itself be wrapped in DDP
// (the PipeDream-style hybrid the paper describes).
package pipeline

import (
	"fmt"
	"sync"

	"repro/internal/autograd"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Pipeline partitions a model into sequential stages.
type Pipeline struct {
	stages []nn.Module
}

// New builds a pipeline over the given stages (at least one).
func New(stages ...nn.Module) (*Pipeline, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("pipeline: no stages")
	}
	return &Pipeline{stages: stages}, nil
}

// StageModules returns the stage modules in order (they share their
// parameters with the pipeline; useful for monolithic re-execution in
// equivalence checks).
func (p *Pipeline) StageModules() []nn.Module { return p.stages }

// Parameters returns all stages' parameters in stage order.
func (p *Pipeline) Parameters() []*nn.Parameter {
	var out []*nn.Parameter
	for _, s := range p.stages {
		out = append(out, s.Parameters()...)
	}
	return out
}

// ZeroGrad clears gradients across all stages.
func (p *Pipeline) ZeroGrad() {
	for _, s := range p.stages {
		nn.ZeroGrad(s)
	}
}

// LossFunc builds the loss for one micro-batch from the last stage's
// output and the micro-batch's target rows.
type LossFunc func(out *autograd.Variable, target *tensor.Tensor) *autograd.Variable

// TrainBatch splits x and target (row-wise, dimension 0) into `micro`
// equal micro-batches, pipelines the forward passes through all stages,
// then drains the backward passes in reverse. Parameter gradients
// accumulate across micro-batches scaled by 1/micro, so the result
// equals full-batch training when the loss is a mean (GPipe's
// equivalence guarantee). It returns the mean micro-batch loss.
func (p *Pipeline) TrainBatch(x, target *tensor.Tensor, micro int, lossFn LossFunc) (float32, error) {
	rows := x.Dims(0)
	if micro <= 0 || rows%micro != 0 {
		return 0, fmt.Errorf("pipeline: %d rows not divisible into %d micro-batches", rows, micro)
	}
	if target.Dims(0) != rows {
		return 0, fmt.Errorf("pipeline: target rows %d != input rows %d", target.Dims(0), rows)
	}
	per := rows / micro

	type fwdMsg struct {
		idx  int
		data *tensor.Tensor
	}
	type bwdMsg struct {
		idx  int
		grad *tensor.Tensor
	}

	n := len(p.stages)
	fwdCh := make([]chan fwdMsg, n+1)
	bwdCh := make([]chan bwdMsg, n+1)
	for i := range fwdCh {
		fwdCh[i] = make(chan fwdMsg, micro)
		bwdCh[i] = make(chan bwdMsg, micro)
	}

	// Feed micro-batches into stage 0.
	go func() {
		for m := 0; m < micro; m++ {
			fwdCh[0] <- fwdMsg{idx: m, data: sliceRows(x, m*per, per)}
		}
		close(fwdCh[0])
	}()
	// Drain the gradients that come back out of stage 0 (inputs are
	// data, not parameters; their gradients are discarded).
	go func() {
		for range bwdCh[0] {
		}
	}()

	var losses sync.Map // micro index -> float32
	var wg sync.WaitGroup
	for s, stage := range p.stages {
		wg.Add(1)
		go func(s int, stage nn.Module) {
			defer wg.Done()
			defer close(bwdCh[s])

			type saved struct {
				in  *autograd.Variable
				out *autograd.Variable
			}
			states := make([]saved, micro)

			// Forward phase: consume micro-batches as they arrive, so
			// stage s works on micro-batch m while stage s-1 is already
			// on m+1 — the pipeline fill.
			last := s == n-1
			for msg := range fwdCh[s] {
				in := autograd.NewLeaf(msg.data, true)
				out := stage.Forward(in)
				states[msg.idx] = saved{in: in, out: out}
				if last {
					loss := lossFn(out, sliceRows(target, msg.idx*per, per))
					losses.Store(msg.idx, loss.Value.Item())
					states[msg.idx].out = loss
				} else {
					fwdCh[s+1] <- fwdMsg{idx: msg.idx, data: out.Value}
				}
			}
			// Forward phase over: release the downstream stage into its
			// own backward phase. Closing here (not at return) matters —
			// our backward phase below blocks on the downstream stage,
			// which cannot finish its forward range until this close.
			close(fwdCh[s+1])

			// Backward phase (drain): the last stage seeds gradients;
			// the others backpropagate the gradient arriving from
			// downstream.
			if last {
				scale := tensor.Scalar(1 / float32(micro))
				for m := 0; m < micro; m++ {
					autograd.Backward(states[m].out, scale)
					bwdCh[s] <- bwdMsg{idx: m, grad: states[m].in.Grad}
				}
				return
			}
			for msg := range bwdCh[s+1] {
				st := states[msg.idx]
				autograd.Backward(st.out, msg.grad)
				bwdCh[s] <- bwdMsg{idx: msg.idx, grad: st.in.Grad}
			}
		}(s, stage)
	}
	wg.Wait()

	var mean float32
	for m := 0; m < micro; m++ {
		v, ok := losses.Load(m)
		if !ok {
			return 0, fmt.Errorf("pipeline: micro-batch %d produced no loss", m)
		}
		mean += v.(float32)
	}
	return mean / float32(micro), nil
}

// sliceRows copies rows [start, start+count) of a 2-D tensor.
func sliceRows(t *tensor.Tensor, start, count int) *tensor.Tensor {
	cols := t.Dims(1)
	out := tensor.New(count, cols)
	copy(out.Data(), t.Data()[start*cols:(start+count)*cols])
	return out
}
