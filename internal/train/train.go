// Package train is the one training step every loop over a
// replica.Replica runs: forward, the loss, and a backward that ends
// with the update applied — the user's loop the paper's DDP leaves
// alone (Section 3.1), written once. ddptrain, the chaos harness, the
// sharding ablation, Fig 11 and the examples call Step; what differs
// between them is only where the batch comes from (internal/data) and
// what they do with the Stats.
package train

import (
	"fmt"
	"time"

	"repro/internal/autograd"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// Loss turns the model's output into the scalar loss Backward starts
// from.
type Loss func(out *autograd.Variable) *autograd.Variable

// CrossEntropy is the classification loss against labels.
func CrossEntropy(labels []int) Loss {
	return func(out *autograd.Variable) *autograd.Variable { return autograd.CrossEntropyLoss(out, labels) }
}

// Stats reports one step.
type Stats struct {
	// Loss is the step's loss value.
	Loss float32
	// Forward is the wall time of the forward pass and the loss: the
	// compute before a synchronized replica's first gradient
	// collective (a sharded forward's parameter gathers excepted), which
	// is why the straggler detector is fed this figure.
	Forward time.Duration
	// Backward is the wall time of Backward: gradient computation, the
	// collectives it waits for and the update.
	Backward time.Duration
}

// Add accumulates o into s: the phase times sum, and the loss is o's,
// the latest step's.
func (s *Stats) Add(o Stats) {
	s.Loss = o.Loss
	s.Forward += o.Forward
	s.Backward += o.Backward
}

// Breakdown renders summed Stats as each phase's share of the total,
// e.g. "forward 25.0% (50ms) | backward+comm 75.0% (150ms)".
func (s Stats) Breakdown() string {
	total := s.Forward + s.Backward
	if total == 0 {
		return "(no samples)"
	}
	share := func(d time.Duration) float64 { return 100 * float64(d) / float64(total) }
	return fmt.Sprintf("forward %.1f%% (%s) | backward+comm %.1f%% (%s)",
		share(s.Forward), s.Forward.Round(time.Microsecond), share(s.Backward), s.Backward.Round(time.Microsecond))
}

// accumulator is DDP's no_sync (Section 3.2.4), the one capability
// outside the seam a step uses: a sharded replica reduces on every
// step and has none.
type accumulator interface{ NoSync(fn func() error) error }

// Step runs one training step of r on the batch x. With sync false the
// step runs under the replica's NoSync: its gradients accumulate and
// no update is applied; a replica without NoSync is refused, and
// nothing runs.
func Step(r replica.Replica, x *tensor.Tensor, loss Loss, sync bool) (Stats, error) {
	var st Stats
	step := func() error {
		start := time.Now()
		l := loss(r.Forward(autograd.Constant(x)))
		st.Loss = l.Value.Item()
		mid := time.Now()
		st.Forward = mid.Sub(start)
		err := r.Backward(l)
		st.Backward = time.Since(mid)
		return err
	}
	var err error
	if sync {
		err = step()
	} else if a, ok := r.(accumulator); ok {
		err = a.NoSync(step)
	} else {
		err = fmt.Errorf("train: %T has no NoSync, so it cannot run a step without synchronizing", r)
	}
	return st, err
}
