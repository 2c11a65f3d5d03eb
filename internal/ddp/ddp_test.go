package ddp

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// buildMLP constructs a deterministic little MLP. Each rank seeds its
// own copy differently; the DDP constructor's rank-0 broadcast must
// align them.
func buildMLP(seed int64, in, hidden, out int) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewLinear(rng, "fc1", in, hidden),
		nn.Tanh{},
		nn.NewLinear(rng, "fc2", hidden, out),
	)
}

// runRanks runs fn concurrently for each rank and reports errors.
func runRanks(t *testing.T, world int, fn func(rank int) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = fn(rank)
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
}

func TestConstructorBroadcastsModelState(t *testing.T) {
	const world = 3
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(int64(100+rank), 4, 8, 2) // different seeds!
		_, err := New(models[rank], groups[rank], Options{})
		return err
	})
	ref := models[0].Parameters()
	for rank := 1; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Value.Equal(ref[i].Value) {
				t.Fatalf("rank %d parameter %d differs after construction", rank, i)
			}
		}
	}
}

func TestGradientsAveragedAcrossRanks(t *testing.T) {
	const world = 4
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	inputs := make([]*tensor.Tensor, world)
	targets := make([]*tensor.Tensor, world)
	dataRng := rand.New(rand.NewSource(1))
	for r := 0; r < world; r++ {
		inputs[r] = tensor.RandN(dataRng, 1, 2, 4)
		targets[r] = tensor.RandN(dataRng, 1, 2, 2)
	}

	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(7, 4, 8, 2)
		d, err := New(models[rank], groups[rank], Options{})
		if err != nil {
			return err
		}
		out := d.Forward(autograd.Constant(inputs[rank]))
		return d.Backward(autograd.MSELoss(out, autograd.Constant(targets[rank])))
	})

	// Reference: average of per-rank local gradients.
	refModel := buildMLP(7, 4, 8, 2)
	refParams := refModel.Parameters()
	sums := make([]*tensor.Tensor, len(refParams))
	for r := 0; r < world; r++ {
		local := buildMLP(7, 4, 8, 2)
		out := local.Forward(autograd.Constant(inputs[r]))
		autograd.Backward(autograd.MSELoss(out, autograd.Constant(targets[r])), nil)
		for i, p := range local.Parameters() {
			if sums[i] == nil {
				sums[i] = p.Grad.Clone()
			} else {
				tensor.AddInPlace(sums[i], p.Grad)
			}
		}
	}
	for i := range sums {
		tensor.ScaleInPlace(sums[i], 1.0/world)
	}
	for rank := 0; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Grad.AllClose(sums[i], 1e-4, 1e-6) {
				t.Fatalf("rank %d param %d: DDP grad differs from averaged local grads (max diff %v)",
					rank, i, p.Grad.MaxAbsDiff(sums[i]))
			}
		}
	}
}

// TestMathematicalEquivalence is the paper's central correctness claim
// (Section 3): N DDP ranks each training on 1/N of every batch must
// follow exactly the same parameter trajectory as local training on the
// full batch, including with momentum.
func TestMathematicalEquivalence(t *testing.T) {
	const world, iters, perRank = 4, 6, 3
	const in, hidden, out = 5, 16, 3

	dataRng := rand.New(rand.NewSource(42))
	batches := make([]*tensor.Tensor, iters)
	labels := make([]*tensor.Tensor, iters)
	for i := range batches {
		batches[i] = tensor.RandN(dataRng, 1, world*perRank, in)
		labels[i] = tensor.RandN(dataRng, 1, world*perRank, out)
	}

	// Local reference: full batch on one model.
	local := buildMLP(3, in, hidden, out)
	localOpt := optim.NewSGD(local.Parameters(), 0.05)
	localOpt.Momentum = 0.9
	for i := 0; i < iters; i++ {
		localOpt.ZeroGrad()
		loss := autograd.MSELoss(local.Forward(autograd.Constant(batches[i])), autograd.Constant(labels[i]))
		autograd.Backward(loss, nil)
		localOpt.Step()
	}

	// Distributed: each rank sees rows [rank*perRank, (rank+1)*perRank).
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(3, in, hidden, out)
		d, err := New(models[rank], groups[rank], Options{BucketCapBytes: 256})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		opt.Momentum = 0.9
		for i := 0; i < iters; i++ {
			opt.ZeroGrad()
			shard := shardRows(batches[i], rank, perRank)
			lshard := shardRows(labels[i], rank, perRank)
			lossv := autograd.MSELoss(d.Forward(autograd.Constant(shard)), autograd.Constant(lshard))
			if err := d.Backward(lossv); err != nil {
				return err
			}
			opt.Step()
		}
		return nil
	})

	for rank := 0; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			lp := local.Parameters()[i]
			if !p.Value.AllClose(lp.Value, 1e-3, 1e-5) {
				t.Fatalf("rank %d param %d diverged from local training: max diff %v",
					rank, i, p.Value.MaxAbsDiff(lp.Value))
			}
		}
	}

	// All replicas must be bitwise identical to each other.
	for rank := 1; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Value.Equal(models[0].Parameters()[i].Value) {
				t.Fatalf("rank %d param %d not identical to rank 0", rank, i)
			}
		}
	}
}

func shardRows(t *tensor.Tensor, rank, perRank int) *tensor.Tensor {
	cols := t.Dims(1)
	out := tensor.New(perRank, cols)
	copy(out.Data(), t.Data()[rank*perRank*cols:(rank+1)*perRank*cols])
	return out
}

// TestParameterAveragingDiverges demonstrates the Section 2.2 caveat:
// when the optimizer state depends nonlinearly on past local gradients
// (Adam's second moment; for plain momentum SGD with per-iteration
// averaging the two schemes coincide by linearity), parameter averaging
// produces different results from gradient synchronization, because
// per-replica optimizer states diverge.
func TestParameterAveragingDiverges(t *testing.T) {
	const world, iters, perRank = 2, 8, 4
	const in, out = 4, 2

	dataRng := rand.New(rand.NewSource(9))
	batches := make([]*tensor.Tensor, iters)
	labels := make([]*tensor.Tensor, iters)
	for i := range batches {
		batches[i] = tensor.RandN(dataRng, 1, world*perRank, in)
		labels[i] = tensor.RandN(dataRng, 1, world*perRank, out)
	}

	// Gradient-sync reference (DDP).
	groups := comm.NewInProcGroups(world, comm.Options{})
	ddpModels := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(5))
		ddpModels[rank] = nn.NewLinear(rng, "fc", in, out)
		d, err := New(ddpModels[rank], groups[rank], Options{})
		if err != nil {
			return err
		}
		opt := optim.NewAdam(d.Parameters(), 0.01)
		for i := 0; i < iters; i++ {
			opt.ZeroGrad()
			shard := shardRows(batches[i], rank, perRank)
			lshard := shardRows(labels[i], rank, perRank)
			if err := d.Backward(autograd.MSELoss(d.Forward(autograd.Constant(shard)), autograd.Constant(lshard))); err != nil {
				return err
			}
			opt.Step()
		}
		return nil
	})

	// Parameter averaging: local steps, then average parameters.
	paModels := make([]nn.Module, world)
	paOpts := make([]*optim.Adam, world)
	for rank := 0; rank < world; rank++ {
		rng := rand.New(rand.NewSource(5))
		paModels[rank] = nn.NewLinear(rng, "fc", in, out)
		paOpts[rank] = optim.NewAdam(paModels[rank].Parameters(), 0.01)
	}
	for i := 0; i < iters; i++ {
		for rank := 0; rank < world; rank++ {
			paOpts[rank].ZeroGrad()
			shard := shardRows(batches[i], rank, perRank)
			lshard := shardRows(labels[i], rank, perRank)
			loss := autograd.MSELoss(paModels[rank].Forward(autograd.Constant(shard)), autograd.Constant(lshard))
			autograd.Backward(loss, nil)
			paOpts[rank].Step()
		}
		// Average parameters across ranks (the auxiliary step).
		for pi := range paModels[0].Parameters() {
			avg := paModels[0].Parameters()[pi].Value.Clone()
			for rank := 1; rank < world; rank++ {
				tensor.AddInPlace(avg, paModels[rank].Parameters()[pi].Value)
			}
			tensor.ScaleInPlace(avg, 1.0/world)
			for rank := 0; rank < world; rank++ {
				paModels[rank].Parameters()[pi].Value.CopyFrom(avg)
			}
		}
	}

	// The two schemes must disagree (momentum states diverged).
	maxDiff := float32(0)
	for pi, p := range ddpModels[0].Parameters() {
		if d := p.Value.MaxAbsDiff(paModels[0].Parameters()[pi].Value); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff < 1e-4 {
		t.Fatalf("parameter averaging unexpectedly matched gradient sync (max diff %v)", maxDiff)
	}
}

func TestBucketCountRespondsToCap(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	m := buildMLP(1, 8, 32, 4) // params: 8*32, 32, 32*4, 4 elements
	dBig, err := New(m, groups[0], Options{BucketCapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if dBig.NumBuckets() != 1 {
		t.Fatalf("1MB cap should give 1 bucket, got %d", dBig.NumBuckets())
	}

	groups2 := comm.NewInProcGroups(1, comm.Options{})
	m2 := buildMLP(1, 8, 32, 4)
	dZero, err := New(m2, groups2[0], Options{BucketCapBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if dZero.NumBuckets() != 4 {
		t.Fatalf("per-parameter buckets expected 4, got %d", dZero.NumBuckets())
	}
}

func TestLaunchOrderIsBucketOrderRegardlessOfReadyOrder(t *testing.T) {
	// The Fig 3(a) guarantee: even if gradients become ready out of
	// order, AllReduce launches must follow bucket index order. We use a
	// recording ProcessGroup and drive markReady out of order.
	rec := &recordingPG{}
	m := buildMLP(1, 4, 4, 2) // 4 params
	d, err := New(m, rec, Options{BucketCapBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.syncThisBackward = true
	d.engine.Reset()
	for _, p := range d.params {
		p.Grad = tensor.New(p.Value.Shape()...)
	}
	// Buckets (reverse order): bucket0={3}, bucket1={2}, bucket2={1},
	// bucket3={0}. Mark param 0 (bucket 3) ready first: nothing may
	// launch until earlier buckets are ready.
	d.engine.CopyIn(0, d.params[0].Grad.Data())
	d.engine.MarkReady(0)
	if len(rec.allReduces) != 0 {
		t.Fatal("bucket 3 must not launch before buckets 0-2")
	}
	d.engine.CopyIn(3, d.params[3].Grad.Data())
	d.engine.MarkReady(3) // bucket 0 ready -> launches bucket 0 only
	if len(rec.allReduces) != 1 {
		t.Fatalf("after bucket0 ready, %d launches", len(rec.allReduces))
	}
	d.engine.CopyIn(2, d.params[2].Grad.Data())
	d.engine.MarkReady(2) // bucket 1 -> launch
	d.engine.CopyIn(1, d.params[1].Grad.Data())
	d.engine.MarkReady(1) // bucket 2 -> launch, then pending bucket 3 launches too
	if len(rec.allReduces) != 4 {
		t.Fatalf("total launches = %d, want 4", len(rec.allReduces))
	}
	for i, sz := range rec.allReduces {
		wantSize := d.params[3-i].Value.Size()
		if sz != wantSize {
			t.Fatalf("launch %d reduced %d elements, want %d (bucket order violated)", i, sz, wantSize)
		}
	}
}

// recordingPG is a single-rank ProcessGroup that records AllReduce sizes.
type recordingPG struct {
	mu         sync.Mutex
	allReduces []int
}

func (r *recordingPG) Rank() int { return 0 }
func (r *recordingPG) Size() int { return 1 }
func (r *recordingPG) AllReduce(data []float32, op comm.ReduceOp) comm.Work {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.allReduces = append(r.allReduces, len(data))
	return comm.CompletedWork(nil)
}
func (r *recordingPG) Broadcast(data []float32, root int) comm.Work { return comm.CompletedWork(nil) }
func (r *recordingPG) AllGather(dst [][]float32, src []float32) comm.Work {
	return comm.CompletedWork(nil)
}
func (r *recordingPG) Barrier() comm.Work { return comm.CompletedWork(nil) }
func (r *recordingPG) Close() error       { return nil }

func TestSkippedSubgraphWithoutFindUnusedErrors(t *testing.T) {
	// Fig 3(b): a forward pass that skips parameters would hang the
	// backward in the paper's naive description; our reducer surfaces a
	// descriptive error instead.
	groups := comm.NewInProcGroups(1, comm.Options{})
	rng := rand.New(rand.NewSource(2))
	fc1 := nn.NewLinear(rng, "used", 4, 4)
	fc2 := nn.NewLinear(rng, "skipped", 4, 4)
	m := nn.NewSequential(fc1, fc2)
	d, err := New(m, groups[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Forward through DDP, but build the loss only from fc1's output.
	_ = d.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 4)))
	// Bypass: run a hand-built sub-graph touching only fc1. The DDP
	// forward above set up reducer state for the full model.
	partial := fc1.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 4)))
	err = d.Backward(autograd.Sum(partial))
	if err == nil {
		t.Fatal("expected incomplete-bucket error")
	}
	if !strings.Contains(err.Error(), "FindUnusedParameters") {
		t.Fatalf("error should mention FindUnusedParameters: %v", err)
	}
}

// subgraphModel optionally skips its second layer — the "pluralized
// graph" situation of Fig 3(b), where different processes run different
// sub-graphs in the same iteration.
type subgraphModel struct {
	fc1, fc2 *nn.Linear
	skipFC2  bool
}

func (s *subgraphModel) Forward(x *autograd.Variable) *autograd.Variable {
	h := s.fc1.Forward(x)
	if s.skipFC2 {
		return h
	}
	return s.fc2.Forward(h)
}

func (s *subgraphModel) Parameters() []*nn.Parameter {
	return append(s.fc1.Parameters(), s.fc2.Parameters()...)
}
func (s *subgraphModel) Buffers() []*nn.Buffer { return nil }
func (s *subgraphModel) SetTraining(bool)      {}

func TestFindUnusedParametersHandlesDynamicGraphs(t *testing.T) {
	// Rank 0 uses both layers; rank 1 skips fc2 (genuinely different
	// graphs in the same iteration). With FindUnusedParameters both
	// complete, fc2's averaged gradient is (rank0 grad + 0)/2, and all
	// replicas end with identical gradients.
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]*subgraphModel, world)
	x := tensor.Ones(2, 3)

	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(3))
		m := &subgraphModel{
			fc1:     nn.NewLinear(rng, "fc1", 3, 3),
			fc2:     nn.NewLinear(rng, "fc2", 3, 3),
			skipFC2: rank == 1,
		}
		models[rank] = m
		d, err := New(m, groups[rank], Options{FindUnusedParameters: true, BucketCapBytes: -1})
		if err != nil {
			return err
		}
		out := d.Forward(autograd.Constant(x.Clone()))
		return d.Backward(autograd.Sum(out))
	})

	// Reference: rank 0's local fc2 gradient halved (rank 1 contributed
	// zero for fc2).
	rng := rand.New(rand.NewSource(3))
	ref := &subgraphModel{fc1: nn.NewLinear(rng, "fc1", 3, 3), fc2: nn.NewLinear(rng, "fc2", 3, 3)}
	autograd.Backward(autograd.Sum(ref.Forward(autograd.Constant(x.Clone()))), nil)
	wantFC2W := tensor.MulScalar(ref.fc2.W.Grad, 0.5)

	for rank := 0; rank < world; rank++ {
		m := models[rank]
		if m.fc2.W.Grad == nil {
			t.Fatalf("rank %d: fc2 weight grad missing (globally used!)", rank)
		}
		if !m.fc2.W.Grad.AllClose(wantFC2W, 1e-5, 1e-7) {
			t.Fatalf("rank %d: fc2 grad = %v, want %v", rank, m.fc2.W.Grad, wantFC2W)
		}
	}
	for i, p := range models[0].Parameters() {
		if !p.Grad.Equal(models[1].Parameters()[i].Grad) {
			t.Fatalf("param %d grads differ across ranks", i)
		}
	}
}

func TestGloballyUnusedParameterGradStaysIntact(t *testing.T) {
	// Both ranks skip fc2: it is globally unused, so DDP must leave its
	// .Grad untouched (nil), letting the optimizer skip it entirely
	// (Section 3.2.3's momentum-protection argument).
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]*subgraphModel, world)
	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(3))
		m := &subgraphModel{
			fc1:     nn.NewLinear(rng, "fc1", 3, 3),
			fc2:     nn.NewLinear(rng, "fc2", 3, 3),
			skipFC2: true,
		}
		models[rank] = m
		d, err := New(m, groups[rank], Options{FindUnusedParameters: true})
		if err != nil {
			return err
		}
		out := d.Forward(autograd.Constant(tensor.Ones(2, 3)))
		return d.Backward(autograd.Sum(out))
	})
	for rank := 0; rank < world; rank++ {
		if models[rank].fc2.W.Grad != nil || models[rank].fc2.B.Grad != nil {
			t.Fatalf("rank %d: globally unused fc2 grad was touched", rank)
		}
		if models[rank].fc1.W.Grad == nil {
			t.Fatalf("rank %d: fc1 grad missing", rank)
		}
	}
}

func TestLayerDropWithFindUnused(t *testing.T) {
	// Both ranks share a LayerDrop seed so they skip the same layer in
	// the same iteration; DDP with FindUnusedParameters must survive
	// skipped iterations and keep replicas identical (Section 6.2.2).
	const world, iters = 2, 6
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	sawSkip := make([]bool, world)

	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(4))
		drop := nn.NewLayerDrop(77, 0.5, nn.NewResidual(nn.NewLinear(rng, "mid", 4, 4)))
		m := nn.NewSequential(
			nn.NewLinear(rng, "in", 4, 4),
			drop,
			nn.NewLinear(rng, "out", 4, 2),
		)
		models[rank] = m
		d, err := New(m, groups[rank], Options{FindUnusedParameters: true})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), 0.05)
		dataRng := rand.New(rand.NewSource(11))
		for i := 0; i < iters; i++ {
			opt.ZeroGrad()
			x := autograd.Constant(tensor.RandN(dataRng, 1, 2, 4))
			y := autograd.Constant(tensor.RandN(dataRng, 1, 2, 2))
			out := d.Forward(x)
			if drop.Skipped {
				sawSkip[rank] = true
			}
			if err := d.Backward(autograd.MSELoss(out, y)); err != nil {
				return err
			}
			opt.Step()
		}
		return nil
	})

	if !sawSkip[0] || !sawSkip[1] {
		t.Fatal("test needs at least one skipped iteration; adjust seed")
	}
	for i, p := range models[0].Parameters() {
		if !p.Value.Equal(models[1].Parameters()[i].Value) {
			t.Fatalf("replicas diverged at param %d", i)
		}
	}
}

func TestNoSyncAccumulatesThenSynchronizes(t *testing.T) {
	// Section 3.2.4: n no_sync backwards plus one synchronized backward
	// must equal synchronizing the sum of all n+1 gradients.
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)

	dataRng := rand.New(rand.NewSource(6))
	// Three micro-batches per rank.
	micro := make([][]*tensor.Tensor, world)
	microLabels := make([][]*tensor.Tensor, world)
	for r := 0; r < world; r++ {
		for k := 0; k < 3; k++ {
			micro[r] = append(micro[r], tensor.RandN(dataRng, 1, 2, 4))
			microLabels[r] = append(microLabels[r], tensor.RandN(dataRng, 1, 2, 2))
		}
	}

	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(8, 4, 6, 2)
		d, err := New(models[rank], groups[rank], Options{})
		if err != nil {
			return err
		}
		// Two accumulation steps under no_sync...
		err = d.NoSync(func() error {
			for k := 0; k < 2; k++ {
				out := d.Forward(autograd.Constant(micro[rank][k]))
				if err := d.Backward(autograd.MSELoss(out, autograd.Constant(microLabels[rank][k]))); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		// ...then one synchronized backward.
		out := d.Forward(autograd.Constant(micro[rank][2]))
		return d.Backward(autograd.MSELoss(out, autograd.Constant(microLabels[rank][2])))
	})

	// Reference: per rank, sum of the three micro-batch grads; then
	// average across ranks.
	var want []*tensor.Tensor
	for r := 0; r < world; r++ {
		local := buildMLP(8, 4, 6, 2)
		for k := 0; k < 3; k++ {
			out := local.Forward(autograd.Constant(micro[r][k]))
			autograd.Backward(autograd.MSELoss(out, autograd.Constant(microLabels[r][k])), nil)
		}
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
		tensor.ScaleInPlace(want[i], 1.0/world)
	}
	for rank := 0; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Grad.AllClose(want[i], 1e-4, 1e-6) {
				t.Fatalf("rank %d param %d: no_sync accumulation wrong (max diff %v)",
					rank, i, p.Grad.MaxAbsDiff(want[i]))
			}
		}
	}
}

func TestBufferBroadcastFromRankZero(t *testing.T) {
	// Section 4.1 Model Buffers: rank 0's BatchNorm running stats must
	// reach other ranks before their next synchronized forward.
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	bns := make([]*nn.BatchNorm, world)

	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(10))
		bn := nn.NewBatchNorm("bn", 3)
		bns[rank] = bn
		m := nn.NewSequential(nn.NewLinear(rng, "fc", 3, 3), bn)
		d, err := New(m, groups[rank], Options{})
		if err != nil {
			return err
		}
		dataRng := rand.New(rand.NewSource(int64(20 + rank))) // different data!
		for i := 0; i < 3; i++ {
			x := autograd.Constant(tensor.RandN(dataRng, 1, 4, 3))
			out := d.Forward(x)
			if err := d.Backward(autograd.Sum(out)); err != nil {
				return err
			}
		}
		// One more forward triggers the pending buffer broadcast.
		d.Forward(autograd.Constant(tensor.RandN(dataRng, 1, 4, 3)))
		return nil
	})

	// After the final broadcast-then-forward, both ranks entered the
	// forward with rank 0's stats; rank 1's stats then updated from its
	// own batch, so we compare the stats captured *before* that update
	// is impossible — instead check they were equal at broadcast time by
	// replaying: both ranks' num_batches_tracked match.
	if bns[0].NumBatchesTracked.Data.At(0) != bns[1].NumBatchesTracked.Data.At(0) {
		t.Fatal("num_batches_tracked diverged")
	}
}

// TestBufferBroadcastFailureIsAnError: a peer that dies between a
// synchronized backward and the next forward must not take this process
// down with it — the failed buffer broadcast comes back from Backward
// as an error the elastic agent can roll back from, before any gradient
// is computed.
func TestBufferBroadcastFailureIsAnError(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	wrappers := make([]*DDP, world)
	step := func(rank int) error {
		x := autograd.Constant(tensor.RandN(rand.New(rand.NewSource(int64(20+rank))), 1, 4, 3))
		return wrappers[rank].Backward(autograd.Sum(wrappers[rank].Forward(x)))
	}
	runRanks(t, world, func(rank int) error {
		rng := rand.New(rand.NewSource(10))
		m := nn.NewSequential(nn.NewLinear(rng, "fc1", 3, 3), nn.NewBatchNorm("bn", 3), nn.NewLinear(rng, "fc2", 3, 2))
		d, err := New(m, groups[rank], Options{})
		if err != nil {
			return err
		}
		wrappers[rank] = d
		return step(rank)
	})
	for _, g := range groups {
		if err := comm.AbortGroup(g); err != nil {
			t.Fatal(err)
		}
	}
	runRanks(t, world, func(rank int) error {
		for _, p := range wrappers[rank].Parameters() {
			p.ZeroGrad()
		}
		err := step(rank)
		if err == nil || !strings.HasPrefix(err.Error(), "ddp: forward: broadcasting buffers: ") {
			return fmt.Errorf("step on an aborted group returned %v, want the buffer broadcast's failure", err)
		}
		for _, p := range wrappers[rank].Parameters() {
			if p.Grad != nil {
				return fmt.Errorf("%s has a gradient although Backward refused to run", p.Name)
			}
		}
		return nil
	})
}

func TestGradientCompressionFp16StillTrains(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(12, 4, 8, 2)
		d, err := New(models[rank], groups[rank], Options{
			NewCodec: func() comm.Codec { return comm.Float16Codec{} },
		})
		if err != nil {
			return err
		}
		dataRng := rand.New(rand.NewSource(30))
		out := d.Forward(autograd.Constant(tensor.RandN(dataRng, 1, 2, 4)))
		return d.Backward(autograd.MSELoss(out, autograd.Constant(tensor.RandN(dataRng, 1, 2, 2))))
	})
	// Grads identical across ranks and every value fp16-representable.
	for i, p := range models[0].Parameters() {
		if !p.Grad.Equal(models[1].Parameters()[i].Grad) {
			t.Fatalf("param %d grads differ under compression", i)
		}
	}
}

// bareGroup is a ProcessGroup decorator that forwards the core
// collectives only, not comm.GradientCompressor.
type bareGroup struct{ comm.ProcessGroup }

// TestCompressionOverBareGroupFailsBackward: with a codec configured, a
// process group that cannot carry compressed frames stops the first
// synchronized Backward with comm.ErrCompressionUnsupported on every
// rank — it does not train on quantize-then-AllReduce numbers instead.
func TestCompressionOverBareGroupFailsBackward(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	runRanks(t, world, func(rank int) error {
		d, err := New(buildMLP(12, 4, 8, 2), bareGroup{groups[rank]}, Options{
			NewCodec: func() comm.Codec { return comm.Float16Codec{} },
		})
		if err != nil {
			return err
		}
		dataRng := rand.New(rand.NewSource(30))
		out := d.Forward(autograd.Constant(tensor.RandN(dataRng, 1, 2, 4)))
		err = d.Backward(autograd.MSELoss(out, autograd.Constant(tensor.RandN(dataRng, 1, 2, 2))))
		if !errors.Is(err, comm.ErrCompressionUnsupported) {
			return fmt.Errorf("Backward returned %v, want comm.ErrCompressionUnsupported", err)
		}
		return nil
	})
}

func TestRebuildBucketsFollowsObservedOrder(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	m := buildMLP(1, 4, 4, 2)
	d, err := New(m, groups[0], Options{BucketCapBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.RebuildBuckets(); err == nil {
		t.Fatal("RebuildBuckets before any iteration must error")
	}
	rng := rand.New(rand.NewSource(1))
	out := d.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 4)))
	if err := d.Backward(autograd.Sum(out)); err != nil {
		t.Fatal(err)
	}
	order := d.ObservedReadyOrder()
	if len(order) != 4 {
		t.Fatalf("observed %d ready events, want 4", len(order))
	}
	if err := d.RebuildBuckets(); err != nil {
		t.Fatal(err)
	}
	// New bucket 0 must begin with the first-observed parameter.
	if d.Assignment().Buckets[0][0] != order[0] {
		t.Fatalf("rebuilt bucket0 starts with %d, observed first %d",
			d.Assignment().Buckets[0][0], order[0])
	}
	// Training still works after the rebuild.
	out = d.Forward(autograd.Constant(tensor.RandN(rng, 1, 2, 4)))
	if err := d.Backward(autograd.Sum(out)); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAndNaiveBackendsAgreeWithRing(t *testing.T) {
	// The same training step over different collective algorithms must
	// give numerically identical results across ranks for each backend.
	for _, algo := range []comm.Algorithm{comm.Ring, comm.Tree, comm.Naive} {
		const world = 3
		groups := comm.NewInProcGroups(world, comm.Options{Algorithm: algo})
		models := make([]nn.Module, world)
		runRanks(t, world, func(rank int) error {
			models[rank] = buildMLP(21, 4, 6, 2)
			d, err := New(models[rank], groups[rank], Options{})
			if err != nil {
				return err
			}
			dataRng := rand.New(rand.NewSource(int64(40 + rank)))
			out := d.Forward(autograd.Constant(tensor.RandN(dataRng, 1, 2, 4)))
			return d.Backward(autograd.MSELoss(out, autograd.Constant(tensor.RandN(dataRng, 1, 2, 2))))
		})
		for i := range models[0].Parameters() {
			if !models[0].Parameters()[i].Grad.Equal(models[1].Parameters()[i].Grad) {
				t.Fatalf("%v: grads differ across ranks", algo)
			}
		}
	}
}

func TestModuleWithoutParametersRejected(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	if _, err := New(nn.NewSequential(nn.ReLU{}), groups[0], Options{}); err == nil {
		t.Fatal("expected error for parameterless module")
	}
}

func TestDefaultBucketCapIs25MB(t *testing.T) {
	if DefaultBucketCapBytes != 25*1024*1024 {
		t.Fatalf("default cap = %d", DefaultBucketCapBytes)
	}
}
