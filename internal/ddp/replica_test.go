package ddp

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

const fusedLR, fusedMomentum = 0.1, 0.9

// fusedRun is one rank's side of a schedule trained twice: through
// NewReplica's fused update (r), or through New with a separate
// optim.SGD stepped after every synchronized Backward (opt).
type fusedRun struct {
	d   *DDP
	r   *Replica   // the fused arm
	opt *optim.SGD // the oracle arm
}

// newFusedRun wraps m over pg as the fused arm, or as the oracle arm.
func newFusedRun(m nn.Module, pg comm.ProcessGroup, opts Options, fused bool) (*fusedRun, error) {
	if fused {
		r, err := NewReplica(m, pg, opts, fusedLR, fusedMomentum)
		if err != nil {
			return nil, err
		}
		return &fusedRun{d: r.DDP, r: r}, nil
	}
	d, err := New(m, pg, opts)
	if err != nil {
		return nil, err
	}
	opt := optim.NewSGD(m.Parameters(), fusedLR)
	opt.Momentum = fusedMomentum
	return &fusedRun{d: d, opt: opt}, nil
}

// step runs iteration s of rank at world on the arm, under NoSync when
// sync is false: Forward and Backward both inside it, as the wrapper
// decides at Forward.
func (f *fusedRun) step(s, rank, world int, sync bool) error {
	iter := func() error {
		rng := rand.New(rand.NewSource(int64(1_000*s + 10*rank + world)))
		x := autograd.Constant(tensor.RandN(rng, 1, 3, 4))
		out := f.d.Forward(x)
		loss := autograd.MSELoss(out, autograd.Constant(tensor.RandN(rng, 1, out.Value.Shape()...)))
		if f.r != nil {
			return f.r.Backward(loss)
		}
		return f.d.Backward(loss)
	}
	if !sync {
		return f.d.NoSync(iter)
	}
	if err := iter(); err != nil {
		return err
	}
	if f.opt != nil {
		f.opt.Step()
		f.opt.ZeroGrad()
	}
	return nil
}

// velocity is the arm's momentum state in parameter order.
func (f *fusedRun) velocity() []float32 {
	if f.opt != nil {
		return f.opt.FlatState()
	}
	st, _ := f.r.CaptureState() // local: never fails
	return st.Optimizer
}

// sameFloats reports whether a and b hold bit-for-bit the same elements.
func sameFloats(a, b []float32) bool {
	return len(a) == len(b) && testutil.SameBits(tensor.FromSlice(a, len(a)), tensor.FromSlice(b, len(b)))
}

// flatParams copies m's parameter values in order.
func flatParams(m nn.Module) []float32 {
	var out []float32
	for _, p := range m.Parameters() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// requireSameRuns trains build's model at world through both arms —
// steps iterations, synchronizing those sync picks, before(s, rank, m)
// run ahead of each — and requires every rank's parameters and momentum
// to come out bitwise equal. It returns the fused arm's runs.
func requireSameRuns(t *testing.T, world, steps int, opts Options, build func(rank int) nn.Module,
	sync func(s int) bool, before func(s, rank int, m nn.Module)) []*fusedRun {
	t.Helper()
	type result struct{ params, velocity []float32 }
	results := map[bool][]result{}
	var fusedRuns []*fusedRun
	for _, fused := range []bool{true, false} {
		groups := comm.NewInProcGroups(world, comm.Options{})
		runs := make([]*fusedRun, world)
		runRanks(t, world, func(rank int) error {
			m := build(rank)
			f, err := newFusedRun(m, groups[rank], opts, fused)
			if err != nil {
				return err
			}
			runs[rank] = f
			for s := 0; s < steps; s++ {
				if before != nil {
					before(s, rank, m)
				}
				if err := f.step(s, rank, world, sync(s)); err != nil {
					return err
				}
			}
			return nil
		})
		for _, f := range runs {
			results[fused] = append(results[fused], result{flatParams(f.d.Module()), f.velocity()})
		}
		if fused {
			fusedRuns = runs
		}
	}
	for rank := range world {
		got, want := results[true][rank], results[false][rank]
		if !sameFloats(got.params, want.params) {
			t.Fatalf("rank %d: the fused update's parameters differ from optim.SGD's", rank)
		}
		if !sameFloats(got.velocity, want.velocity) {
			t.Fatalf("rank %d: the fused update's momentum differs from optim.SGD's", rank)
		}
	}
	return fusedRuns
}

func everyStep(int) bool { return true }

// TestFusedUpdateUnderNoSync: iterations run under NoSync accumulate
// and apply nothing; every second step synchronizes and applies the
// update to the accumulated average, as optim.SGD stepped after it does.
func TestFusedUpdateUnderNoSync(t *testing.T) {
	runs := requireSameRuns(t, 2, 6, Options{BucketCapBytes: 64},
		func(rank int) nn.Module { return buildMLP(int64(rank)+1, 4, 6, 3) },
		func(s int) bool { return s%2 == 1 }, nil)
	for rank, f := range runs {
		for _, p := range f.d.Parameters() {
			if p.Grad != nil {
				t.Fatalf("rank %d: %s kept its gradient after a synchronized step", rank, p.Name)
			}
		}
	}
}

// TestFusedUpdateSkipsGloballyUnusedParameter: fc2 is used in the first
// two steps and skipped by every rank in the last two, so its momentum
// is not zero when it falls out of the graph; with FindUnusedParameters
// its Grad stays nil, and its value and velocity must come out exactly
// as the second step left them — no decay (Section 3.2.3).
func TestFusedUpdateSkipsGloballyUnusedParameter(t *testing.T) {
	const used = 2
	var atUsed [][]float32 // fc2's weight and its velocity, rank 0
	fc2 := func(f *fusedRun) [][]float32 {
		m := f.d.Module().(*subgraphModel)
		v := f.velocity()
		n := m.fc1.W.Value.Size() + m.fc1.B.Value.Size()
		return [][]float32{append([]float32(nil), m.fc2.W.Value.Data()...), v[n : n+m.fc2.W.Value.Size()]}
	}
	runs := requireSameRuns(t, 2, used+2, Options{FindUnusedParameters: true},
		func(rank int) nn.Module {
			rng := rand.New(rand.NewSource(3))
			return &subgraphModel{fc1: nn.NewLinear(rng, "fc1", 4, 3), fc2: nn.NewLinear(rng, "fc2", 3, 3)}
		}, everyStep,
		func(s, rank int, m nn.Module) { m.(*subgraphModel).skipFC2 = s >= used })
	atEnd := fc2(runs[0])

	// The same fused run, stopped after the steps that use fc2.
	groups := comm.NewInProcGroups(2, comm.Options{})
	runRanks(t, 2, func(rank int) error {
		rng := rand.New(rand.NewSource(3))
		m := &subgraphModel{fc1: nn.NewLinear(rng, "fc1", 4, 3), fc2: nn.NewLinear(rng, "fc2", 3, 3)}
		f, err := newFusedRun(m, groups[rank], Options{FindUnusedParameters: true}, true)
		if err != nil {
			return err
		}
		for s := 0; s < used; s++ {
			if err := f.step(s, rank, 2, true); err != nil {
				return err
			}
		}
		if rank == 0 {
			atUsed = fc2(f)
		}
		return nil
	})
	for _, v := range atUsed[1] {
		if v == 0 {
			t.Fatal("fixture: fc2's velocity has a zero element before it falls out of the graph")
		}
	}
	for i, what := range []string{"value", "velocity"} {
		if !sameFloats(atEnd[i], atUsed[i]) {
			t.Errorf("the globally unused fc2's %s changed", what)
		}
	}
}

// TestFusedUpdateAcrossAutoRebuild: the first synchronized step traces
// the gradient order and the next Forward relayouts the buckets; the
// update must not care which bucket a gradient arrived in.
func TestFusedUpdateAcrossAutoRebuild(t *testing.T) {
	runs := requireSameRuns(t, 2, 4, Options{AutoRebuildBuckets: true, BucketCapBytes: 40},
		func(rank int) nn.Module { return newReversedModel(int64(rank) + 5) }, everyStep, nil)
	if !runs[0].d.Rebuilt() {
		t.Fatal("fixture: the buckets were never rebuilt")
	}
}

// TestInstallStateAtAnotherWorld: momentum captured from a world of 3
// and installed into fresh replicas of a world of 2 — built from other
// initial values, then given rank 0's parameters — continues the
// trajectory one DDP with optim.SGD takes through SetProcessGroup.
func TestInstallStateAtAnotherWorld(t *testing.T) {
	const steps = 3
	build := func(rank int) nn.Module { return buildMLP(int64(rank)+7, 4, 6, 3) }
	train := func(runs []*fusedRun, world, from int) {
		runRanks(t, world, func(rank int) error {
			for s := from; s < from+steps; s++ {
				if err := runs[rank].step(s, rank, world, true); err != nil {
					return err
				}
			}
			return nil
		})
	}
	arm := func(fused bool) []*fusedRun {
		wide := comm.NewInProcGroups(3, comm.Options{})
		runs := make([]*fusedRun, 3)
		runRanks(t, 3, func(rank int) (err error) {
			runs[rank], err = newFusedRun(build(rank), wide[rank], Options{BucketCapBytes: 64}, fused)
			return err
		})
		train(runs, 3, 0)
		return runs
	}

	want := arm(false)
	narrow := comm.NewInProcGroups(2, comm.Options{})
	runRanks(t, 2, func(rank int) error { return want[rank].d.SetProcessGroup(narrow[rank]) })
	train(want, 2, steps)

	src := arm(true)
	st, err := src[0].r.CaptureState()
	if err != nil {
		t.Fatal(err)
	}
	srcParams := flatParams(src[0].d.Module())
	narrow = comm.NewInProcGroups(2, comm.Options{})
	got := make([]*fusedRun, 2)
	runRanks(t, 2, func(rank int) (err error) {
		m := build(rank + 10)
		off := 0
		for _, p := range m.Parameters() {
			off += copy(p.Value.Data(), srcParams[off:])
		}
		if got[rank], err = newFusedRun(m, narrow[rank], Options{BucketCapBytes: 64}, true); err != nil {
			return err
		}
		return got[rank].r.InstallState(st)
	})
	train(got, 2, steps)

	for rank := range 2 {
		if !sameFloats(flatParams(got[rank].d.Module()), flatParams(want[rank].d.Module())) {
			t.Fatalf("rank %d: parameters differ from the SetProcessGroup run's", rank)
		}
		if !sameFloats(got[rank].velocity(), want[rank].velocity()) {
			t.Fatalf("rank %d: momentum differs from the SetProcessGroup run's", rank)
		}
	}
}

// TestInstallStateRefusesWrongLength: an optimizer vector of another
// model is refused, naming what it is, and leaves the momentum alone.
func TestInstallStateRefusesWrongLength(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	m := buildMLP(1, 4, 6, 3)
	f, err := newFusedRun(m, groups[0], Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.step(0, 0, 1, true); err != nil {
		t.Fatal(err)
	}
	before := f.velocity()
	err = f.r.InstallState(replica.State{Optimizer: make([]float32, len(before)+1)})
	if err == nil || !strings.Contains(err.Error(), "SGD state has") {
		t.Fatalf("InstallState of %d elements into %d: got %v, want it refused by name", len(before)+1, len(before), err)
	}
	if !sameFloats(f.velocity(), before) {
		t.Fatal("a refused InstallState changed the momentum")
	}
}
