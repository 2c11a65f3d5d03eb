package chaos

import (
	"fmt"
	"sync"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/strategy"
	"repro/internal/tensor"
	"repro/internal/train"
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
	chModelSeed = 7
	// Small bucket cap so rebuilds cross several buckets.
	chBucketCap = 256
)

func chModel() nn.Module { return models.NewMLP(chModelSeed, chIn, chHidden, chClasses) }

// chBatchFor derives the batch purely from its coordinates.
var chBatchFor = data.Coords{Batch: chBatch, Features: chIn, Classes: chClasses}.At

// chBatchAt is the batch rank of world trains at step, for the cluster
// under test and the reference alike. Codec runs use (step, 0, 1) for
// every rank: rank-independent batches keep the error-feedback
// residuals bitwise identical across ranks, so they stay comparable to
// the reference after any membership change.
func chBatchAt(codec string, step int64, rank, world int) (*tensor.Tensor, []int) {
	if codec != "" {
		rank, world = 0, 1
	}
	return chBatchFor(step, rank, world)
}

// chSpec is the fixture's replica of a strategy and codec, for the
// cluster under test and for the reference alike. Replicas are aligned
// before either builds one, so no constructor broadcast.
func chSpec(name, codec string) strategy.Spec {
	return strategy.Spec{Strategy: name, BucketCapBytes: chBucketCap, Codec: codec, LR: chLR, Aligned: true}
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
	r     replica.Replica // built by the first phase that steps this rank
	// pending is the state beyond the model a worker adopted before it
	// had a replica to hold it: rank 0's optimizer state and residuals,
	// copied by a joiner (elastic state-sync) or by a restart (the
	// checkpoint).
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
// restart from rank 0's params and whole replica state, which is what a
// checkpoint holds. Its end state is the oracle the bitwise invariant
// compares survivors against.
type reference struct {
	codec   string
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
				rep, err := strategy.Build(w.model, groups[r], chSpec("", rf.codec))
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
				x, labels := chBatchAt(rf.codec, s, r, world)
				if _, err := train.Step(w.r, x, train.CrossEntropy(labels), true); err != nil {
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
// exactly the checkpoint — rank 0's params and replica state, residuals
// included. restore == 0 means nothing was committed and the respawned
// cluster starts fresh from the model seed.
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
	rf.workers = []*refWorker{{model: m, pending: src.state()}}
	return nil
}

// runReference replays the plan's lineage. For a kill-all run, era 0
// contributes only steps [0, restore) — everything past the restored
// checkpoint was rolled back — and era 1 re-executes [restore, Steps).
func runReference(p *plan, restore int64) (*reference, error) {
	rf := &reference{codec: p.s.Codec}
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
