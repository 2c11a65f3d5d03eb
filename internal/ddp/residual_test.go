package ddp

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// trainSteps runs n synchronized iterations on d with deterministic
// data derived from seed.
func trainSteps(d *DDP, opt *optim.SGD, seed int64, n int) error {
	rng := rand.New(rand.NewSource(seed))
	for it := 0; it < n; it++ {
		opt.ZeroGrad()
		x := tensor.RandN(rng, 1, 2, 4)
		y := tensor.RandN(rng, 1, 2, 2)
		out := d.Forward(autograd.Constant(x))
		if err := d.Backward(autograd.MSELoss(out, autograd.Constant(y))); err != nil {
			return err
		}
		opt.Step()
	}
	return nil
}

// residualNonZero reports whether any residual element is non-zero —
// the precondition for a continuity assertion to mean anything.
func residualNonZero(res []float32) bool {
	for _, v := range res {
		if v != 0 {
			return true
		}
	}
	return false
}

// TestResidualSurvivesRebuildBitwise is the regression test for the
// residual-reset bug: rebuilding buckets (the Section 6.2.1 layout
// change) used to recreate every codec, silently zeroing 1-bit error
// feedback after the first iteration of every run. Residuals are now
// keyed by parameter identity and must be bitwise-identical across the
// traced rebuild, which fires inside the second synchronized Forward —
// before any bucket launches, so they can be read on either side of it.
func TestResidualSurvivesRebuildBitwise(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	before := make([][]float32, world)
	after := make([][]float32, world)
	runRanks(t, world, func(rank int) error {
		m := buildMLP(21, 4, 8, 2)
		// Tiny cap: several buckets, so the rebuild genuinely reshuffles.
		d, err := New(m, groups[rank], Options{
			BucketCapBytes:     64,
			AutoRebuildBuckets: true,
			NewCodec:           func() comm.Codec { return &comm.OneBitCodec{} },
		})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		if err := trainSteps(d, opt, int64(100+rank), 1); err != nil {
			return err
		}
		before[rank] = d.ResidualState()
		rng := rand.New(rand.NewSource(int64(200 + rank)))
		opt.ZeroGrad()
		out := d.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 4)))
		if !d.rebuilt {
			return fmt.Errorf("the traced rebuild did not fire")
		}
		after[rank] = d.ResidualState()
		if err := d.Backward(autograd.MSELoss(out, autograd.Constant(tensor.RandN(rng, 1, 2, 2)))); err != nil {
			return err
		}
		opt.Step()
		// Training must keep working against the remapped layout.
		return trainSteps(d, opt, int64(300+rank), 1)
	})
	for rank := 0; rank < world; rank++ {
		if !residualNonZero(before[rank]) {
			t.Fatalf("rank %d accumulated no residual; test is vacuous", rank)
		}
		if len(before[rank]) != len(after[rank]) {
			t.Fatalf("rank %d: residual length changed across rebuild", rank)
		}
		for i := range before[rank] {
			if before[rank][i] != after[rank][i] {
				t.Fatalf("rank %d: residual %d changed across rebuild: %v -> %v",
					rank, i, before[rank][i], after[rank][i])
			}
		}
	}
}

// TestResidualSurvivesAutoRebuild: the one-shot automatic rebuild of
// Section 6.2.1 (armed by AutoRebuildBuckets, fired inside Forward)
// must leave error feedback in place and training running, with the
// rebuild run as a whole iteration through trainSteps.
func TestResidualSurvivesAutoRebuild(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	checked := make([]bool, world)
	runRanks(t, world, func(rank int) error {
		m := buildMLP(33, 4, 8, 2)
		d, err := New(m, groups[rank], Options{
			BucketCapBytes:     64,
			AutoRebuildBuckets: true,
			NewCodec:           func() comm.Codec { return &comm.OneBitCodec{} },
		})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		if err := trainSteps(d, opt, int64(300+rank), 1); err != nil {
			return err
		}
		before := d.ResidualState()
		if !residualNonZero(before) {
			t.Errorf("rank %d: no residual after first iteration", rank)
		}
		// The next synchronized Forward performs the rebuild.
		if err := trainSteps(d, opt, int64(400+rank), 1); err != nil {
			return err
		}
		if !d.rebuilt {
			t.Errorf("rank %d: auto rebuild did not fire", rank)
		}
		checked[rank] = true
		return nil
	})
	for rank, ok := range checked {
		if !ok {
			t.Fatalf("rank %d did not complete", rank)
		}
	}
}

// TestResidualSurvivesSetProcessGroup: swapping the process group (the
// elastic reconfiguration hook) resets the reducer but must NOT reset
// error feedback — the residual is training state, not reducer state.
func TestResidualSurvivesSetProcessGroup(t *testing.T) {
	const world = 2
	groupsA := comm.NewInProcGroups(world, comm.Options{})
	groupsB := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groupsB {
			g.Close()
		}
	}()
	runRanks(t, world, func(rank int) error {
		m := buildMLP(55, 4, 8, 2)
		d, err := New(m, groupsA[rank], Options{
			BucketCapBytes: 64,
			NewCodec:       func() comm.Codec { return &comm.OneBitCodec{} },
		})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		if err := trainSteps(d, opt, int64(500+rank), 2); err != nil {
			return err
		}
		before := d.ResidualState()
		if !residualNonZero(before) {
			t.Errorf("rank %d: no residual accumulated", rank)
		}
		groupsA[rank].Close()
		if err := d.SetProcessGroup(groupsB[rank]); err != nil {
			return err
		}
		after := d.ResidualState()
		for i := range before {
			if before[i] != after[i] {
				t.Errorf("rank %d: residual %d reset by SetProcessGroup: %v -> %v", rank, i, before[i], after[i])
				break
			}
		}
		if err := trainSteps(d, opt, int64(600+rank), 1); err != nil {
			return err
		}
		return nil
	})
}

// TestSetResidualStateRoundTrip: Set(ResidualState()) is the identity,
// and a joiner that installs a source's vector reports it back bitwise
// — the property elastic's SyncResiduals broadcast relies on.
func TestSetResidualStateRoundTrip(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	defer groups[0].Close()
	m := buildMLP(77, 4, 8, 2)
	d, err := New(m, groups[0], Options{
		BucketCapBytes: 64,
		NewCodec:       func() comm.Codec { return &comm.OneBitCodec{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	opt := optim.NewSGD(d.Parameters(), 0.05)
	if err := trainSteps(d, opt, 900, 2); err != nil {
		t.Fatal(err)
	}
	state := d.ResidualState()
	if !residualNonZero(state) {
		t.Fatal("no residual accumulated")
	}
	// Perturb, then restore.
	perturbed := append([]float32(nil), state...)
	for i := range perturbed {
		perturbed[i] += 1
	}
	if err := d.SetResidualState(perturbed); err != nil {
		t.Fatal(err)
	}
	if err := d.SetResidualState(state); err != nil {
		t.Fatal(err)
	}
	got := d.ResidualState()
	for i := range state {
		if got[i] != state[i] {
			t.Fatalf("residual %d: %v != %v after round trip", i, got[i], state[i])
		}
	}
	if err := d.SetResidualState(state[:len(state)-1]); err == nil {
		t.Fatal("short residual vector must be rejected")
	}

	// Without a wire codec, there is no residual state to carry.
	plain, err := New(buildMLP(78, 4, 8, 2), groups[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s := plain.ResidualState(); len(s) != 0 {
		t.Fatalf("codec-less DDP reports residual state of %d elements", len(s))
	}
	if err := plain.SetResidualState(nil); err != nil {
		t.Fatalf("empty residual install must be a no-op: %v", err)
	}
	if err := plain.SetResidualState([]float32{1}); err == nil {
		t.Fatal("non-empty residual install without a codec must error")
	}
}

// TestWireCodecReplicasStayIdentical: end-to-end through the wire-level
// compressed path, replicas must remain bitwise identical — the paper's
// core correctness guarantee, now under compression.
func TestWireCodecReplicasStayIdentical(t *testing.T) {
	for _, mk := range []struct {
		name    string
		factory func() comm.Codec
	}{
		{"fp16", func() comm.Codec { return comm.Float16Codec{} }},
		{"1bit", func() comm.Codec { return &comm.OneBitCodec{} }},
		{"topk", func() comm.Codec { return &comm.TopKCodec{} }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			const world = 3
			groups := comm.NewInProcGroups(world, comm.Options{})
			defer func() {
				for _, g := range groups {
					g.Close()
				}
			}()
			ddps := make([]*DDP, world)
			runRanks(t, world, func(rank int) error {
				m := buildMLP(int64(rank), 4, 8, 2) // per-rank seeds; constructor aligns
				d, err := New(m, groups[rank], Options{BucketCapBytes: 64, NewCodec: mk.factory})
				if err != nil {
					return err
				}
				ddps[rank] = d
				opt := optim.NewSGD(d.Parameters(), 0.05)
				if err := trainSteps(d, opt, int64(1000+rank), 5); err != nil {
					return err
				}
				return nil
			})
			for rank := 1; rank < world; rank++ {
				for i, p := range ddps[rank].Parameters() {
					if !p.Value.Equal(ddps[0].Parameters()[i].Value) {
						t.Fatalf("rank %d param %d diverged under %s compression", rank, i, mk.name)
					}
				}
			}
		})
	}
}
