package ddp

import (
	"bytes"
	"math/rand"
	"repro/internal/testutil"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// TestDDPThroughCheckpointedSegments: activation checkpointing
// re-executes segments during backward; the parameter hooks it fires
// must still drive DDP's bucketed AllReduce correctly.
func TestDDPThroughCheckpointedSegments(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	mods := make([]nn.Module, world)

	build := func() nn.Module {
		rng := rand.New(rand.NewSource(31))
		return nn.NewSequential(
			nn.NewLinear(rng, "in", 4, 8),
			nn.NewCheckpointed(nn.NewSequential(
				nn.NewLinear(rng, "mid1", 8, 8),
				nn.Tanh{},
				nn.NewLinear(rng, "mid2", 8, 8),
			)),
			nn.NewLinear(rng, "out", 8, 2),
		)
	}

	dataRng := rand.New(rand.NewSource(32))
	inputs := make([]*tensor.Tensor, world)
	for r := range inputs {
		inputs[r] = tensor.RandN(dataRng, 1, 3, 4)
	}

	runRanks(t, world, func(rank int) error {
		m := build()
		mods[rank] = m
		d, err := New(m, groups[rank], Options{BucketCapBytes: 64})
		if err != nil {
			return err
		}
		out := d.Forward(autograd.Constant(inputs[rank]))
		return d.Backward(autograd.Sum(out))
	})

	// Reference: averaged local gradients with plain (non-checkpointed)
	// execution semantics — checkpointing must not change values.
	var want []*tensor.Tensor
	for r := 0; r < world; r++ {
		local := build()
		out := local.Forward(autograd.Constant(inputs[r]))
		autograd.Backward(autograd.Sum(out), nil)
		if want == nil {
			want = make([]*tensor.Tensor, len(local.Parameters()))
			for i, p := range local.Parameters() {
				want[i] = p.Grad.Clone()
			}
		} else {
			for i, p := range local.Parameters() {
				tensor.AddInPlace(want[i], p.Grad)
			}
		}
	}
	for i := range want {
		tensor.ScaleFloats(want[i].Data(), 1.0/world)
	}
	for rank := 0; rank < world; rank++ {
		for i, p := range mods[rank].Parameters() {
			if !testutil.AllClose(p.Grad, want[i], 1e-4, 1e-6) {
				t.Fatalf("rank %d param %d wrong through checkpointing (max diff %v)",
					rank, i, p.Grad.MaxAbsDiff(want[i]))
			}
		}
	}
}

// TestDDPTrainsTransformer runs the real attention model under DDP.
func TestDDPTrainsTransformer(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	mods := make([]nn.Module, world)
	losses := make([]float32, world)

	runRanks(t, world, func(rank int) error {
		m := models.NewTinyTransformer(41, 8, 2, 16, 2)
		mods[rank] = m
		d, err := New(m, groups[rank], Options{BucketCapBytes: 1024})
		if err != nil {
			return err
		}
		opt := optim.NewAdam(d.Parameters(), 0.005)
		dataRng := rand.New(rand.NewSource(int64(60 + rank)))
		var first, last float32
		for it := 0; it < 15; it++ {
			clean := tensor.RandN(dataRng, 1, 4, 8)
			noisy := clean.Clone()
			for i := range noisy.Data() {
				noisy.Data()[i] += 0.2 * float32(dataRng.NormFloat64())
			}
			opt.ZeroGrad()
			out := d.Forward(autograd.Constant(noisy))
			loss := autograd.MSELoss(out, autograd.Constant(clean))
			if it == 0 {
				first = loss.Value.Item()
			}
			last = loss.Value.Item()
			if err := d.Backward(loss); err != nil {
				return err
			}
			opt.Step()
		}
		losses[rank] = last
		if last >= first {
			t.Errorf("rank %d: transformer loss did not improve (%v -> %v)", rank, first, last)
		}
		return nil
	})

	for i, p := range mods[0].Parameters() {
		if !p.Value.Equal(mods[1].Parameters()[i].Value) {
			t.Fatalf("transformer replicas diverged at param %d", i)
		}
	}
}

// TestDDPOverRoundRobinGroups validates DDP on the Section 5.4
// composite group: collectives rotate across sub-groups but results
// must be identical to a single group.
func TestDDPOverRoundRobinGroups(t *testing.T) {
	const world, nGroups = 2, 3
	subGroups := make([][]comm.ProcessGroup, nGroups)
	for i := range subGroups {
		subGroups[i] = comm.NewInProcGroups(world, comm.Options{})
	}
	rrs := make([]comm.ProcessGroup, world)
	for r := 0; r < world; r++ {
		gs := make([]comm.ProcessGroup, nGroups)
		for i := range gs {
			gs[i] = subGroups[i][r]
		}
		rr, err := comm.NewRoundRobin(gs...)
		if err != nil {
			t.Fatal(err)
		}
		rrs[r] = rr
	}
	defer func() {
		for _, g := range rrs {
			g.Close()
		}
	}()

	mods := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		mods[rank] = buildMLP(int64(rank), 4, 8, 2) // different seeds
		d, err := New(mods[rank], rrs[rank], Options{BucketCapBytes: 64})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		dataRng := rand.New(rand.NewSource(int64(70 + rank)))
		for it := 0; it < 4; it++ {
			opt.ZeroGrad()
			out := d.Forward(autograd.Constant(tensor.RandN(dataRng, 1, 2, 4)))
			if err := d.Backward(autograd.MSELoss(out, autograd.Constant(tensor.RandN(dataRng, 1, 2, 2)))); err != nil {
				return err
			}
			opt.Step()
		}
		return nil
	})
	for i, p := range mods[0].Parameters() {
		if !p.Value.Equal(mods[1].Parameters()[i].Value) {
			t.Fatalf("round-robin replicas diverged at param %d", i)
		}
	}
}

// TestDDPCheckpointRestoreMidTraining: rank 0 saves a state dict; a new
// fleet restores it (DDP's constructor broadcast then aligns everyone to
// the restored rank 0) and continues identically to the uninterrupted
// fleet.
func TestDDPCheckpointRestoreMidTraining(t *testing.T) {
	const world = 2
	dataRng := rand.New(rand.NewSource(80))
	batches := make([]*tensor.Tensor, 6)
	labels := make([]*tensor.Tensor, 6)
	for i := range batches {
		batches[i] = tensor.RandN(dataRng, 1, world*2, 4)
		labels[i] = tensor.RandN(dataRng, 1, world*2, 2)
	}

	train := func(d *DDP, opt *optim.SGD, rank, from, to int) error {
		for i := from; i < to; i++ {
			opt.ZeroGrad()
			x := shardRows(batches[i], rank, 2)
			y := shardRows(labels[i], rank, 2)
			if err := d.Backward(autograd.MSELoss(d.Forward(autograd.Constant(x)), autograd.Constant(y))); err != nil {
				return err
			}
			opt.Step()
		}
		return nil
	}

	// Uninterrupted fleet: 6 iterations.
	groupsA := comm.NewInProcGroups(world, comm.Options{})
	contModels := make([]nn.Module, world)
	var ckpt bytes.Buffer
	runRanks(t, world, func(rank int) error {
		m := buildMLP(90, 4, 6, 2)
		contModels[rank] = m
		d, err := New(m, groupsA[rank], Options{})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		if err := train(d, opt, rank, 0, 3); err != nil {
			return err
		}
		if rank == 0 {
			if err := nn.SaveState(&ckpt, m); err != nil {
				return err
			}
		}
		return train(d, opt, rank, 3, 6)
	})

	// Restored fleet: only rank 0 loads the checkpoint; the DDP
	// constructor broadcast aligns the others.
	groupsB := comm.NewInProcGroups(world, comm.Options{})
	restModels := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		m := buildMLP(int64(100+rank), 4, 6, 2) // junk init
		restModels[rank] = m
		if rank == 0 {
			if err := nn.LoadState(bytes.NewReader(ckpt.Bytes()), m); err != nil {
				return err
			}
		}
		d, err := New(m, groupsB[rank], Options{})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		return train(d, opt, rank, 3, 6)
	})

	// Note: momentum was zero here (fresh SGD without momentum state in
	// the checkpoint), so trajectories match exactly only because
	// Momentum defaults to 0.
	for i, p := range restModels[0].Parameters() {
		if !testutil.AllClose(p.Value, contModels[0].Parameters()[i].Value, 1e-6, 1e-7) {
			t.Fatalf("restored fleet diverged at param %d (max diff %v)",
				i, p.Value.MaxAbsDiff(contModels[0].Parameters()[i].Value))
		}
	}
}
