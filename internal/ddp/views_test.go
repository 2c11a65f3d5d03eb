package ddp

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/buffer"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// After a synchronized backward a parameter's Grad is a view of its
// bucket slot. The scripts below drive world-2 DDP through every
// situation in which that view meets a gradient that is not in the slot
// yet (no_sync accumulation, stale views after a rebuild or a group
// swap) or must stay out of it (unused parameters), and compare every
// rank's every Grad, bitwise and after every step, against unwrapped
// replicas whose gradients are averaged by hand.

// viewStep is one iteration of a script.
type viewStep struct {
	noSync bool    // run under NoSync: accumulate locally, no reduction
	zero   bool    // ZeroGrad before the iteration
	skip   [2]bool // per rank: leave fc2 out of this iteration's graph
	// before runs on every rank's DDP ahead of the iteration (bucket
	// rebuilds, process-group swaps).
	before func(d *DDP, rank int) error
}

const viewWorld = 2

func newViewModel() *subgraphModel {
	rng := rand.New(rand.NewSource(11))
	return &subgraphModel{fc1: nn.NewLinear(rng, "fc1", 3, 4), fc2: nn.NewLinear(rng, "fc2", 4, 2)}
}

func viewInput(step, rank int) *tensor.Tensor {
	return tensor.RandN(rand.New(rand.NewSource(int64(100*step+rank))), 1, 2, 3)
}

// gradSnapshot is every parameter's Grad (nil where absent), cloned.
func gradSnapshot(m nn.Module) []*tensor.Tensor {
	ps := m.Parameters()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		if p.Grad != nil {
			out[i] = p.Grad.Clone()
		}
	}
	return out
}

// referenceGrads plays the script on unwrapped replicas. A synchronized
// step replaces, on every rank, the Grad of each parameter some rank
// used since the last synchronization by (g0 + g1) * 0.5 — what the
// world-2 ring computes, an absent gradient counting as zeros — and
// leaves the others alone. Without findUnused every parameter counts
// as used. It returns the gradients after each step, per rank.
func referenceGrads(script []viewStep, findUnused bool) [][viewWorld][]*tensor.Tensor {
	var models [viewWorld]*subgraphModel
	for r := range models {
		models[r] = newViewModel()
	}
	nParams := len(models[0].Parameters())
	used := make([]bool, nParams)
	var out [][viewWorld][]*tensor.Tensor
	for s, st := range script {
		for r, m := range models {
			if st.zero {
				for _, p := range m.Parameters() {
					p.ZeroGrad()
				}
			}
			m.skipFC2 = st.skip[r]
			loss := autograd.Sum(m.Forward(autograd.Constant(viewInput(s, r))))
			inGraph := autograd.LeafSet(loss)
			for i, p := range m.Parameters() {
				if !findUnused || inGraph[p.Variable] {
					used[i] = true
				}
			}
			autograd.Backward(loss, nil)
		}
		if !st.noSync {
			for i := 0; i < nParams; i++ {
				if !used[i] {
					continue
				}
				p0, p1 := models[0].Parameters()[i], models[1].Parameters()[i]
				g0, g1 := tensor.New(p0.Value.Shape()...), tensor.New(p0.Value.Shape()...)
				if p0.Grad != nil {
					g0 = p0.Grad
				}
				if p1.Grad != nil {
					g1 = p1.Grad
				}
				avg := tensor.MulScalar(tensor.Add(g0, g1), 0.5)
				p0.Grad, p1.Grad = avg, avg.Clone()
			}
			for i := range used {
				used[i] = false
			}
		}
		var snap [viewWorld][]*tensor.Tensor
		for r, m := range models {
			snap[r] = gradSnapshot(m)
		}
		out = append(out, snap)
	}
	return out
}

// runViewScript plays the script through DDP and checks every step
// against referenceGrads.
func runViewScript(t *testing.T, script []viewStep, opts Options) {
	t.Helper()
	want := referenceGrads(script, opts.FindUnusedParameters)
	groups := comm.NewInProcGroups(viewWorld, comm.Options{Algorithm: comm.Ring})
	got := make([][viewWorld][]*tensor.Tensor, len(script))
	runRanks(t, viewWorld, func(rank int) error {
		m := newViewModel()
		d, err := New(m, groups[rank], opts)
		if err != nil {
			return err
		}
		for s, st := range script {
			if st.before != nil {
				if err := st.before(d, rank); err != nil {
					return fmt.Errorf("step %d: %w", s, err)
				}
			}
			if st.zero {
				for _, p := range d.Parameters() {
					p.ZeroGrad()
				}
			}
			m.skipFC2 = st.skip[rank]
			iterate := func() error {
				return d.Backward(autograd.Sum(d.Forward(autograd.Constant(viewInput(s, rank)))))
			}
			if st.noSync {
				err = d.NoSync(iterate)
			} else {
				err = iterate()
			}
			if err != nil {
				return fmt.Errorf("step %d: %w", s, err)
			}
			if !st.noSync && !opts.FindUnusedParameters {
				// The averaged gradient was not copied out: Grad is the
				// bucket slot.
				for i, p := range d.Parameters() {
					if p.Grad != d.views[i] || !p.Grad.SharesStorage(tensor.FromSlice(d.Engine().Slot(i), p.Value.Size())) {
						return fmt.Errorf("step %d: parameter %d's Grad is not the view of its bucket slot", s, i)
					}
				}
			}
			got[s][rank] = gradSnapshot(m)
		}
		return nil
	})
	for s := range script {
		for rank := 0; rank < viewWorld; rank++ {
			for i := range want[s][rank] {
				if !testutil.SameBits(got[s][rank][i], want[s][rank][i]) {
					t.Fatalf("step %d rank %d parameter %d: Grad %v, hand-averaged reference %v",
						s, rank, i, got[s][rank][i], want[s][rank][i])
				}
			}
		}
	}
}

func TestGradViewsNoSyncTwiceThenSync(t *testing.T) {
	runViewScript(t, []viewStep{
		{noSync: true}, {noSync: true}, {},
		// And again, now starting from Grads that are views.
		{noSync: true}, {noSync: true}, {},
		{zero: true, noSync: true}, {},
	}, Options{})
}

func TestGradViewsTwoSyncedStepsWithoutZeroGrad(t *testing.T) {
	for _, cap := range []int{0, -1, 40} { // one bucket, one per parameter, a few
		runViewScript(t, []viewStep{{}, {}, {}, {zero: true}, {}}, Options{BucketCapBytes: cap})
	}
}

func TestGradViewsFindUnusedWithSkippedSubgraph(t *testing.T) {
	both, one := [2]bool{true, true}, [2]bool{false, true}
	runViewScript(t, []viewStep{
		{skip: one},              // fc2: rank 1 contributes zeros
		{skip: both},             // fc2 globally unused: Grad (a view) stays intact
		{skip: one},              // ... and is accumulated into again
		{zero: true, skip: both}, // globally unused with no gradient: stays nil
		{skip: one},              // rank 1's fc2 Grad appears from nothing
		{noSync: true},           // fc2 used under no_sync ...
		{skip: both},             // ... so it is reduced here although this graph skips it
		{zero: true},
	}, Options{FindUnusedParameters: true, BucketCapBytes: -1})
}

// swapGroups returns a viewStep.before that moves each rank onto a
// fresh world-2 group, closed when the test ends.
func swapGroups(t *testing.T) func(d *DDP, rank int) error {
	next := comm.NewInProcGroups(viewWorld, comm.Options{Algorithm: comm.Ring})
	t.Cleanup(func() {
		for _, g := range next {
			g.Close()
		}
	})
	return func(d *DDP, rank int) error {
		if err := d.ProcessGroup().Close(); err != nil {
			return err
		}
		return d.SetProcessGroup(next[rank])
	}
}

// TestGradViewsSurviveRebuildBuckets: the traced rebuild fires in the
// first synchronized Forward after a complete trace — here onto Grads
// that no_sync accumulated into the old layout's views, and, re-armed
// by a group swap, onto zeroed Grads.
func TestGradViewsSurviveRebuildBuckets(t *testing.T) {
	runViewScript(t, []viewStep{
		{},
		{noSync: true}, // accumulates into the views of the layout ...
		{},             // ... this step's Forward replaces
		{before: swapGroups(t)},
		{zero: true},
	}, Options{AutoRebuildBuckets: true, BucketCapBytes: 40})
}

func TestGradViewsSurviveSetProcessGroup(t *testing.T) {
	runViewScript(t, []viewStep{{}, {before: swapGroups(t)}, {}, {zero: true}}, Options{BucketCapBytes: 40})
}

// TestGradViewsFollowAutoRebuild: the one-shot Section 6.2.1 rebuild
// happens inside the second synchronized Forward, with Grads viewing
// the layout it replaces.
func TestGradViewsFollowAutoRebuild(t *testing.T) {
	runViewScript(t, []viewStep{{}, {}, {zero: true}, {noSync: true}, {}},
		Options{AutoRebuildBuckets: true, BucketCapBytes: 40})
}

// TestWeightGradientsAreBornInTheirSlot: with nothing accumulated, a
// Linear layer's weight and bias gradients are already the views of
// their bucket slots when the parameter's hooks run — MatMul's and
// AddRow's backward wrote them there — and the destination follows
// every new layout (the automatic rebuild, SetProcessGroup and the
// rebuild it re-arms). A gradient that cannot be born in place (one
// accumulated onto a Grad that views a replaced layout) arrives as a
// tensor of its own and the hook moves it.
func TestWeightGradientsAreBornInTheirSlot(t *testing.T) {
	next := comm.NewInProcGroups(viewWorld, comm.Options{Algorithm: comm.Ring})
	defer func() {
		for _, g := range next {
			g.Close()
		}
	}()
	groups := comm.NewInProcGroups(viewWorld, comm.Options{Algorithm: comm.Ring})
	runRanks(t, viewWorld, func(rank int) error {
		m := newViewModel()
		var d *DDP
		// Registered ahead of DDP's own hooks, so it sees each Grad as
		// autograd installed it.
		inSlot := make([]bool, len(m.Parameters()))
		for i, p := range m.Parameters() {
			p.RegisterPostAccumulateHook(func(v *autograd.Variable) { inSlot[i] = v.Grad == d.views[i] })
		}
		d, err := New(m, groups[rank], Options{AutoRebuildBuckets: true, BucketCapBytes: 40})
		if err != nil {
			return err
		}
		step := func(noSync bool) error {
			iterate := func() error {
				return d.Backward(autograd.Sum(d.Forward(autograd.Constant(viewInput(0, rank)))))
			}
			if noSync {
				return d.NoSync(iterate)
			}
			return iterate()
		}
		zero := func() {
			for _, p := range d.Parameters() {
				p.ZeroGrad()
			}
		}
		all := []bool{true, true, true, true} // fc1.w, fc1.b, fc2.w, fc2.b
		none := make([]bool, len(all))
		script := []struct {
			what   string
			before func() error
			noSync bool
			want   []bool
		}{
			{"first step", nil, false, all},
			{"after the automatic rebuild", func() error { zero(); return nil }, false, all},
			{"not zeroed: accumulates into the view it already is", nil, false, all},
			{"no_sync: born in the slot all the same", func() error { zero(); return nil }, true, all},
			{"after SetProcessGroup, accumulating onto the stale view", func() error {
				if err := d.ProcessGroup().Close(); err != nil {
					return err
				}
				return d.SetProcessGroup(next[rank])
			}, false, none},
			{"after SetProcessGroup, zeroed: the re-armed rebuild", func() error { zero(); return nil }, false, all},
		}
		for _, sc := range script {
			if sc.before != nil {
				if err := sc.before(); err != nil {
					return fmt.Errorf("%s: %w", sc.what, err)
				}
			}
			if err := step(sc.noSync); err != nil {
				return fmt.Errorf("%s: %w", sc.what, err)
			}
			if !slices.Equal(inSlot, sc.want) {
				return fmt.Errorf("%s: gradients already in their slot when the hooks ran: %v, want %v", sc.what, inSlot, sc.want)
			}
		}
		if !d.Rebuilt() {
			return fmt.Errorf("the automatic rebuild never ran")
		}
		return nil
	})
}

// TestBackwardAllocatesNoGradientCopy is the allocation gate for the
// gradient data path: in a warm world-2 in-proc training step of an MLP
// whose bytes are almost all weights, the gradients are written by
// their kernels straight into the bucket slots, so the whole step —
// both ranks — allocates less than a quarter of one model's bytes
// (activations, graph bookkeeping). When the kernels still allocated
// their results and the hook copied them in, a step allocated twice the
// model's bytes; before gradients were handed on, viewed and recycled,
// about eight times.
func TestBackwardAllocatesNoGradientCopy(t *testing.T) {
	if buffer.RaceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	const world, width, batch, steps = 2, 256, 4, 20
	groups := comm.NewInProcGroups(world, comm.Options{Algorithm: comm.Ring})
	ranks := make([]*DDP, world)
	opts := make([]*optim.SGD, world)
	inputs := make([]*tensor.Tensor, world)
	modelBytes := 0
	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(5))
		m := nn.NewSequential(
			nn.NewLinear(rng, "fc1", width, width), nn.ReLU{},
			nn.NewLinear(rng, "fc2", width, width), nn.ReLU{},
			nn.NewLinear(rng, "fc3", width, width),
		)
		d, err := New(m, groups[rank], Options{})
		if err != nil {
			return err
		}
		ranks[rank], opts[rank] = d, optim.NewSGD(d.Parameters(), 0.01)
		opts[rank].Momentum = 0.9
		inputs[rank] = tensor.RandN(rng, 1, batch, width)
		if rank == 0 {
			modelBytes = 4 * nn.NumParams(m)
		}
		return nil
	})
	train := func(n int) {
		runRanks(t, world, func(rank int) error {
			for i := 0; i < n; i++ {
				out := ranks[rank].Forward(autograd.Constant(inputs[rank]))
				if err := ranks[rank].Backward(autograd.Mean(out)); err != nil {
					return err
				}
				opts[rank].Step()
				opts[rank].ZeroGrad()
			}
			return nil
		})
	}
	train(3) // warm: velocity, frame pool
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	train(steps)
	runtime.ReadMemStats(&after)
	perStep := float64(after.TotalAlloc-before.TotalAlloc) / steps
	limit := float64(modelBytes) / 4
	t.Logf("%.0f bytes/step over %d ranks, model = %d bytes, limit %.0f", perStep, world, modelBytes, limit)
	if perStep > limit {
		t.Fatalf("a warm step allocates %.0f bytes, more than a quarter of the model's %d: gradients are being allocated or copied again", perStep, modelBytes)
	}
}

// TestGloballyUnusedViewStaysBitwiseIntact: a parameter no rank uses
// in an iteration keeps its Grad — here last iteration's average, a
// view of the bucket slot the reduction is about to run over. At world
// 3 the reduction of three equal values is not the identity
// ((x+x+x)/3 != x in float32), so the Grad must have been taken out of
// the slot before, not averaged in place and hoped equal.
func TestGloballyUnusedViewStaysBitwiseIntact(t *testing.T) {
	const world = 3
	groups := comm.NewInProcGroups(world, comm.Options{Algorithm: comm.Ring})
	runRanks(t, world, func(rank int) error {
		// Wide enough that some of fc2's gradients do not survive
		// (x+x+x)/3 unchanged.
		rng := rand.New(rand.NewSource(11))
		m := &subgraphModel{fc1: nn.NewLinear(rng, "fc1", 3, 16), fc2: nn.NewLinear(rng, "fc2", 16, 16)}
		d, err := New(m, groups[rank], Options{FindUnusedParameters: true})
		if err != nil {
			return err
		}
		var before []*tensor.Tensor
		for s, skip := range []bool{false, true} {
			m.skipFC2 = skip
			out := d.Forward(autograd.Constant(viewInput(s, rank)))
			if err := d.Backward(autograd.Sum(autograd.Tanh(out))); err != nil {
				return err
			}
			if !skip {
				before = gradSnapshot(m)
			}
		}
		after := gradSnapshot(m)
		for _, i := range []int{2, 3} { // fc2's weight and bias
			if !testutil.SameBits(after[i], before[i]) {
				return fmt.Errorf("globally unused parameter %d: Grad changed from %v to %v", i, before[i], after[i])
			}
		}
		return nil
	})
}
