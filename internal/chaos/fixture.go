package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
)

// ---- deterministic training fixture ---------------------------------------
//
// Mirrors the elastic convergence fixture: batches are a pure function
// of (step, rank, world), models initialize from one seed, and state
// sync is a bitwise copy, so an elastic run under a chaos schedule and
// a failure-free reference replay of the same membership lineage must
// agree exactly. The model is kept smaller than the elastic one — a
// schedule runs many cluster lifetimes, not one.

const (
	chIn        = 6
	chHidden    = 8
	chClasses   = 3
	chBatch     = 4
	chLR        = 0.1
	chMom       = 0.9
	chModelSeed = 7
	// Small bucket cap so rebuilds cross several buckets.
	chBucketCap = 256
)

func chModel() nn.Module { return models.NewMLP(chModelSeed, chIn, chHidden, chClasses) }

func chOptimizer(m nn.Module) *optim.SGD {
	opt := optim.NewSGD(m.Parameters(), chLR)
	opt.Momentum = chMom
	return opt
}

// chBatchFor derives the batch purely from its coordinates. Codec runs
// pass (step, 0, 1) for every rank: rank-independent batches keep the
// error-feedback residuals bitwise identical across ranks, so they stay
// comparable to the reference after any membership change.
func chBatchFor(step int64, rank, world int) (*tensor.Tensor, []int) {
	seed := step*1_000_003 + int64(rank)*10_007 + int64(world)*101
	rng := rand.New(rand.NewSource(seed))
	x := tensor.New(chBatch, chIn)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, chBatch)
	for i := range labels {
		labels[i] = rng.Intn(chClasses)
	}
	return x, labels
}

// chDDPReplica builds the replicated arm — DDP over pg plus the
// fixture's SGD — for the cluster under test and for the reference
// alike; only the former ever plants the residual-reset bug. Replicas
// are aligned before either builds one, so no constructor broadcast.
func chDDPReplica(m nn.Module, pg comm.ProcessGroup, codec, plantBug bool) (*ddp.Replica, error) {
	opts := ddp.Options{
		BucketCapBytes:                 chBucketCap,
		SkipInitialBroadcast:           true,
		TestingResetResidualsOnRebuild: plantBug,
	}
	if codec {
		opts.NewCodec = func() comm.Codec { return &comm.OneBitCodec{} }
	}
	return ddp.NewReplica(m, pg, opts, chOptimizer(m))
}

func chTrainStep(r replica.Replica, step int64, rank, world int) error {
	x, labels := chBatchFor(step, rank, world)
	out := r.Forward(autograd.Constant(x))
	if err := r.Backward(autograd.CrossEntropyLoss(out, labels)); err != nil {
		return err
	}
	r.Step()
	return nil
}

func chFlattenParams(m nn.Module) []float32 {
	var out []float32
	for _, p := range m.Parameters() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

func sameF32(a, b []float32) (int, bool) {
	if len(a) != len(b) {
		return -1, false
	}
	for i := range a {
		if a[i] != b[i] {
			return i, false
		}
	}
	return 0, true
}

// ---- failure-free reference replay ----------------------------------------

// refWorker is one rank of the reference cluster.
type refWorker struct {
	model nn.Module
	r     *ddp.Replica // built by the first phase that steps this rank
	// pending is the state beyond the model a worker adopted before it
	// had a replica to hold it: a joiner's copy of rank 0's optimizer
	// state and residuals (elastic state-sync), or a restart's
	// checkpointed optimizer state.
	pending replica.State
}

// state is the worker's optimizer and residual state, wherever it
// currently lives.
func (w *refWorker) state() replica.State {
	if w.r == nil {
		return w.pending
	}
	st, _ := w.r.CaptureState() // local for DDP, never fails
	return st
}

// reference replays a plan's membership lineage without failures: the
// same steps at the same world sizes, with joiners adopting state from
// rank 0 exactly like elastic state-sync, and a kill-all modeled as a
// restart from the checkpointed (params, optimizer) with residuals
// reset. Its end state is the oracle the bitwise invariant compares
// survivors against.
type reference struct {
	codec   bool
	workers []*refWorker
}

// phase steps the cluster from start to end at the given world size,
// resizing first: shrink truncates (every rank holds identical state),
// grow clones rank 0 the way elastic state-sync would.
func (rf *reference) phase(start, end int64, world int) error {
	if world < 1 {
		return fmt.Errorf("chaos reference: phase [%d,%d) at world %d", start, end, world)
	}
	if len(rf.workers) > world {
		rf.workers = rf.workers[:world]
	}
	for len(rf.workers) < world {
		w := &refWorker{model: chModel()}
		if len(rf.workers) > 0 {
			src := rf.workers[0]
			if err := nn.CopyParameters(w.model, src.model); err != nil {
				return fmt.Errorf("chaos reference: joiner params: %w", err)
			}
			w.pending = src.state()
		}
		rf.workers = append(rf.workers, w)
	}
	if start >= end {
		return nil
	}
	groups := comm.NewInProcGroups(world, comm.Options{})
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := range rf.workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := rf.workers[r]
			if w.r == nil {
				rep, err := chDDPReplica(w.model, groups[r], rf.codec, false)
				if err == nil {
					err = rep.InstallState(w.pending)
				}
				if err != nil {
					errs[r] = err
					return
				}
				w.r, w.pending = rep, replica.State{}
			} else if err := w.r.Rebind(groups[r]); err != nil {
				errs[r] = err
				return
			}
			for s := start; s < end; s++ {
				rank, rw := r, world
				if rf.codec {
					rank, rw = 0, 1
				}
				if err := chTrainStep(w.r, s, rank, rw); err != nil {
					errs[r] = fmt.Errorf("ref step %d: %w", s, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for _, g := range groups {
		g.Close()
	}
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("chaos reference rank %d: %v", r, err)
		}
	}
	return nil
}

// reset models the kill-all boundary: what survives the restart is
// exactly the checkpoint — params and optimizer state, never residuals.
// restore == 0 means nothing was committed and the respawned cluster
// starts fresh from the model seed.
func (rf *reference) reset(restore int64) error {
	if restore == 0 || len(rf.workers) == 0 {
		rf.workers = nil
		return nil
	}
	src := rf.workers[0]
	m := chModel()
	if err := nn.CopyParameters(m, src.model); err != nil {
		return fmt.Errorf("chaos reference: restart params: %w", err)
	}
	rf.workers = []*refWorker{{model: m, pending: replica.State{Optimizer: src.state().Optimizer}}}
	return nil
}

// runReference replays the plan's lineage. For a kill-all run, era 0
// contributes only steps [0, restore) — everything past the restored
// checkpoint was rolled back — and era 1 re-executes [restore, Steps).
func runReference(p *plan, restore int64) (*reference, error) {
	rf := &reference{codec: p.s.Codec == "1bit"}
	segs := func(wt []int, start, end int64) error {
		for at := start; at < end; {
			w := wt[at]
			to := at + 1
			for to < end && wt[to] == w {
				to++
			}
			if err := rf.phase(at, to, w); err != nil {
				return err
			}
			at = to
		}
		return nil
	}
	if p.killAll == nil {
		if err := segs(p.world0, 0, p.s.Steps); err != nil {
			return nil, err
		}
		return rf, nil
	}
	if err := segs(p.world0, 0, restore); err != nil {
		return nil, err
	}
	if err := rf.reset(restore); err != nil {
		return nil, err
	}
	if err := segs(p.world1, restore, p.s.Steps); err != nil {
		return nil, err
	}
	return rf, nil
}
