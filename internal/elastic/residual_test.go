package elastic

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/optim"
	"repro/internal/store"
)

// oneBitFactory configures DDP's wire-level 1-bit compression — the
// codec whose error-feedback residuals the elastic sync exists to
// carry.
func oneBitFactory() comm.Codec { return &comm.OneBitCodec{} }

// sharedBatchStep trains one step on a batch that is a function of the
// step ONLY. Error-feedback residuals are per-rank state (each rank
// accumulates the quantization error of its own gradients), and elastic
// rank reassignment across generations is arrival-order dependent —
// with rank-dependent batches the per-rank residual streams would be
// scrambled nondeterministically. Rank-independent data keeps every
// trajectory a pure function of shared state, so a dropped residual (or
// a joiner skipping the sync) still diverges bitwise from the
// reference, which is exactly what this test must detect.
func sharedBatchStep(d *ddp.DDP, opt optim.Optimizer, step int64) error {
	x, labels := batchFor(step, 0, 1)
	out := d.Forward(autograd.Constant(x))
	loss := autograd.CrossEntropyLoss(out, labels)
	if err := d.Backward(loss); err != nil {
		return err
	}
	opt.Step()
	opt.ZeroGrad()
	return nil
}

// oneBitReplica is the compressed runs' Config.Replica.
var oneBitReplica = ddpReplica(ddp.Options{BucketCapBytes: testBucketCap, NewCodec: oneBitFactory})

// sharedStep is sharedBatchStep through the seam.
func sharedStep(ctx StepContext) error {
	x, labels := batchFor(ctx.Step, 0, 1)
	return replicaStep(ctx.Replica, x, labels)
}

// residualsOf reads a finished worker's error-feedback residuals.
func residualsOf(t *testing.T, w *testWorker) []float32 {
	t.Helper()
	st, err := w.agent.Replica().CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	return st.Residuals
}

// runCompressedRefPhase is runRefPhase with the 1-bit codec and shared
// batches: fresh in-proc groups per phase, SetProcessGroup between
// phases (which carries residuals via the per-parameter store, exactly
// like the elastic agent's swap).
func runCompressedRefPhase(t *testing.T, workers []*refWorker, start, end int64) {
	t.Helper()
	world := len(workers)
	groups := comm.NewInProcGroups(world, comm.Options{})
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := range workers {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := workers[r]
			if w.d == nil {
				d, err := ddp.New(w.model, groups[r], ddp.Options{
					BucketCapBytes:       testBucketCap,
					SkipInitialBroadcast: true,
					NewCodec:             oneBitFactory,
				})
				if err != nil {
					errs[r] = err
					return
				}
				w.d = d
			} else if err := w.d.SetProcessGroup(groups[r]); err != nil {
				errs[r] = err
				return
			}
			for s := start; s < end; s++ {
				if err := sharedBatchStep(w.d, w.opt, s); err != nil {
					errs[r] = fmt.Errorf("ref step %d: %w", s, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("reference rank %d: %v", r, err)
		}
	}
	for _, g := range groups {
		g.Close()
	}
}

// assertSameResiduals compares two residual vectors bitwise.
func assertSameResiduals(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: residual length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: residuals diverge at %d: %v != %v — error feedback was not preserved across the reconfiguration",
				name, i, got[i], want[i])
		}
	}
}

// TestElasticReconfigPreservesResidualsBitwise is the acceptance
// scenario for the residual carry: three workers train with wire-level
// 1-bit compression, one leaves mid-run, survivors reconfigure
// (SetProcessGroup + SyncResiduals) and finish. The run must match —
// bitwise, parameters AND residuals — a plain-DDP reference that
// switches world size at the same step while carrying its residuals.
// Before the fix, reconfiguration recreated the codecs and silently
// zeroed the accumulated error, which diverges here at the first
// post-recovery quantization.
func TestElasticReconfigPreservesResidualsBitwise(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 3 // leaver's last completed step
	)

	mkWorker := func(id string) *testWorker {
		cfg := testConfig(st, reg, id, 2, 3)
		cfg.Replica = oneBitReplica
		return newTestWorker(t, cfg)
	}
	workers := make([]*testWorker, 3)
	for i := range workers {
		workers[i] = mkWorker(fmt.Sprintf("w%d", i))
	}
	victim := workers[2]

	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *testWorker) {
			defer wg.Done()
			step := fullWorld(w.agent, 3, func(ctx StepContext) error {
				if w == victim && ctx.Step == k {
					w.agent.Leave()
				}
				return sharedStep(ctx)
			})
			errs[i] = w.agent.Run(total, step)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Reference: world 3 for steps [0,k], world 2 afterwards, residuals
	// carried across the world switch.
	ref := newRefWorkers(3)
	runCompressedRefPhase(t, ref, 0, k+1)
	runCompressedRefPhase(t, ref[:2], k+1, total)

	wantParams := flattenParams(ref[0].model)
	wantRes := ref[0].d.ResidualState()
	if !anyNonZero(wantRes) {
		t.Fatal("reference accumulated no residual; test is vacuous")
	}
	for i, w := range workers[:2] {
		assertSameParams(t, fmt.Sprintf("survivor%d-params", i), flattenParams(w.model), wantParams)
		assertSameResiduals(t, fmt.Sprintf("survivor%d", i), residualsOf(t, w), wantRes)
	}
}

// TestScaleUpSyncsResidualsToJoiner: a worker that joins mid-run must
// adopt the elected source's residuals (SyncResiduals), not start from
// zero — asserted bitwise against a reference whose third worker copies
// model, optimizer, AND residual state at the switch step. Skipping the
// residual broadcast makes the joiner's first quantization disagree
// with the incumbents', and every parameter after it.
func TestScaleUpSyncsResidualsToJoiner(t *testing.T) {
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	const (
		total = 8
		k     = 4 // first step executed at world 3
	)

	mkWorker := func(id string) *testWorker {
		cfg := testConfig(st, reg, id, 2, 3)
		cfg.Replica = oneBitReplica
		return newTestWorker(t, cfg)
	}
	w0, w1, joiner := mkWorker("w0"), mkWorker("w1"), mkWorker("late")

	startJoiner := make(chan struct{})
	var once sync.Once

	var wg sync.WaitGroup
	errs := make([]error, 3)
	incumbent := func(w *testWorker) StepFunc {
		return func(ctx StepContext) error {
			if ctx.World == 2 && ctx.Step == k {
				once.Do(func() { close(startJoiner) })
				return w.agent.AwaitGenerationChange()
			}
			return sharedStep(ctx)
		}
	}
	wg.Add(3)
	go func() { defer wg.Done(); errs[0] = w0.agent.Run(total, incumbent(w0)) }()
	go func() { defer wg.Done(); errs[1] = w1.agent.Run(total, incumbent(w1)) }()
	go func() {
		defer wg.Done()
		<-startJoiner
		errs[2] = joiner.agent.Run(total, sharedStep)
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Reference: world 2 for [0,k), world 3 from k; the third reference
	// worker adopts model + optimizer + residual state, exactly like the
	// elastic joiner does via SyncState + SyncResiduals.
	ref := newRefWorkers(2)
	runCompressedRefPhase(t, ref, 0, k)
	third := newRefWorkers(1)[0]
	if err := copyRefState(third, ref[0]); err != nil {
		t.Fatalf("copying reference state: %v", err)
	}
	refWide := append(ref, third)
	runCompressedRefPhase(t, refWide, k, total)

	wantParams := flattenParams(refWide[0].model)
	wantRes := refWide[0].d.ResidualState()
	if !anyNonZero(wantRes) {
		t.Fatal("reference accumulated no residual; test is vacuous")
	}
	for id, w := range map[string]*testWorker{"w0": w0, "w1": w1, "late": joiner} {
		assertSameParams(t, id+"-params", flattenParams(w.model), wantParams)
		assertSameResiduals(t, id, residualsOf(t, w), wantRes)
	}
}

// copyRefState clones model, optimizer, and residual state from src to
// dst — the reference-side analogue of SyncState + SyncResiduals. The
// destination needs a DDP wrapper to hold residuals; it is built over a
// throwaway singleton group (no collectives run before the next phase
// swaps it out).
func copyRefState(dst, src *refWorker) error {
	sp := src.model.Parameters()
	for i, p := range dst.model.Parameters() {
		copy(p.Value.Data(), sp[i].Value.Data())
	}
	if err := dst.opt.SetFlatState(src.opt.FlatState()); err != nil {
		return err
	}
	solo := comm.NewInProcGroups(1, comm.Options{})
	d, err := ddp.New(dst.model, solo[0], ddp.Options{
		BucketCapBytes:       testBucketCap,
		SkipInitialBroadcast: true,
		NewCodec:             oneBitFactory,
	})
	if err != nil {
		return err
	}
	if err := d.SetResidualState(src.d.ResidualState()); err != nil {
		return err
	}
	dst.d = d
	return solo[0].Close()
}

func anyNonZero(v []float32) bool {
	for _, x := range v {
		if x != 0 {
			return true
		}
	}
	return false
}
