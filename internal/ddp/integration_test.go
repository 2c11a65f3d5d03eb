package ddp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// reversedModel registers parameters in the opposite order of their
// execution: Parameters() lists layer a first, but the forward pass runs
// b before a, so a's gradients become ready first — the situation where
// DDP's reverse-registration-order heuristic mis-predicts and the
// Section 6.2.1 rebuild pays off.
type reversedModel struct {
	a, b *nn.Linear
}

func newReversedModel(seed int64) *reversedModel {
	rng := rand.New(rand.NewSource(seed))
	return &reversedModel{
		a: nn.NewLinear(rng, "a", 4, 2),
		b: nn.NewLinear(rng, "b", 4, 4),
	}
}

func (m *reversedModel) Forward(x *autograd.Variable) *autograd.Variable {
	return m.a.Forward(m.b.Forward(x))
}

func (m *reversedModel) Parameters() []*nn.Parameter {
	return append(m.a.Parameters(), m.b.Parameters()...)
}
func (m *reversedModel) Buffers() []*nn.Buffer { return nil }
func (m *reversedModel) SetTraining(bool)      {}

func TestAutoRebuildBucketsFollowsExecutionOrder(t *testing.T) {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})
	ddps := make([]*DDP, world)
	models := make([]*reversedModel, world)

	iteration := func(d *DDP, rank int, seed int64) error {
		rng := rand.New(rand.NewSource(seed))
		out := d.Forward(autograd.Constant(tensor.RandN(rng, 1, 3, 4)))
		return d.Backward(autograd.Sum(out))
	}

	runRanks(t, world, func(rank int) error {
		models[rank] = newReversedModel(5)
		d, err := New(models[rank], groups[rank], Options{
			BucketCapBytes:     -1, // per-parameter buckets expose ordering
			AutoRebuildBuckets: true,
		})
		if err != nil {
			return err
		}
		ddps[rank] = d
		// Default assignment: reverse registration order, so bucket 0
		// holds b's last parameter — the WRONG prediction for this model.
		if first := d.Assignment().Buckets[0][0]; first != 3 {
			t.Errorf("rank %d: default bucket0 starts with %d, want 3 (b.bias)", rank, first)
		}
		return iteration(d, rank, int64(10+rank))
	})
	for _, d := range ddps {
		if d.Rebuilt() {
			t.Fatal("rebuild must not happen during the first iteration")
		}
	}

	// Second iteration triggers the one-shot rebuild at forward time.
	runRanks(t, world, func(rank int) error {
		return iteration(ddps[rank], rank, int64(20+rank))
	})
	for rank, d := range ddps {
		if !d.Rebuilt() {
			t.Fatalf("rank %d: rebuild did not happen", rank)
		}
		// Bucket 0 now starts with one of a's parameters (ready first).
		if first := d.Assignment().Buckets[0][0]; first != 0 && first != 1 {
			t.Fatalf("rank %d: rebuilt bucket0 starts with %d, want a parameter of layer a", rank, first)
		}
	}
	// All ranks agree on the rebuilt assignment (rank 0's trace wins).
	for b := range ddps[0].Assignment().Buckets {
		for i, idx := range ddps[0].Assignment().Buckets[b] {
			if ddps[1].Assignment().Buckets[b][i] != idx {
				t.Fatal("ranks disagree on rebuilt assignment")
			}
		}
	}

	// Training continues correctly after the rebuild: replicas identical.
	runRanks(t, world, func(rank int) error {
		opt := optim.NewSGD(ddps[rank].Parameters(), 0.1)
		for i := 0; i < 3; i++ {
			if err := iteration(ddps[rank], rank, int64(30+i+rank)); err != nil {
				return err
			}
			opt.Step()
			opt.ZeroGrad()
		}
		return nil
	})
	for i, p := range models[0].Parameters() {
		if !p.Value.Equal(models[1].Parameters()[i].Value) {
			t.Fatalf("replicas diverged at param %d after rebuild", i)
		}
	}
	// The rebuild is one-shot.
	order0 := ddps[0].Assignment().Buckets[0][0]
	runRanks(t, world, func(rank int) error { return iteration(ddps[rank], rank, 99) })
	if ddps[0].Assignment().Buckets[0][0] != order0 {
		t.Fatal("assignment changed after the one-shot rebuild")
	}
}

// eitherModel runs exactly one of its two layers: the situation where
// ranks' graphs, and so their gradient-ready orders, differ.
type eitherModel struct {
	fa, fb *nn.Linear
	useB   bool
}

func (m *eitherModel) Forward(x *autograd.Variable) *autograd.Variable {
	if m.useB {
		return m.fb.Forward(x)
	}
	return m.fa.Forward(x)
}

func (m *eitherModel) Parameters() []*nn.Parameter {
	return append(m.fa.Parameters(), m.fb.Parameters()...)
}
func (m *eitherModel) Buffers() []*nn.Buffer { return nil }
func (m *eitherModel) SetTraining(bool)      {}

// TestAutoRebuildAgreesAcrossDivergentReadyOrders: rank 0 runs only fa,
// rank 1 only fb, so rank 0 traces the ready order [2 3 1 0] and rank 1
// [0 1 3 2]. Packing each rank's buckets by its own trace would make the
// next AllReduce sum fb's gradient on one rank with fa's on the other;
// the rebuild follows rank 0's trace on every rank, so after it both
// replicas hold, bitwise, the average an unwrapped pair computes.
func TestAutoRebuildAgreesAcrossDivergentReadyOrders(t *testing.T) {
	const world, steps = 2, 2 // the traced rebuild fires in the second step's Forward
	newModel := func(rank int) *eitherModel {
		rng := rand.New(rand.NewSource(7))
		return &eitherModel{fa: nn.NewLinear(rng, "fa", 3, 3), fb: nn.NewLinear(rng, "fb", 3, 3), useB: rank == 1}
	}
	input := func(step, rank int) *autograd.Variable {
		return autograd.Constant(tensor.RandN(rand.New(rand.NewSource(int64(10*step+rank))), 1, 2, 3))
	}
	// Reference: each rank's local gradients, the absent layer's as
	// zeros, averaged as the world-2 ring does: (g0 + g1) * 0.5.
	var want [world][]*tensor.Tensor
	for rank := 0; rank < world; rank++ {
		m := newModel(rank)
		autograd.Backward(autograd.Sum(m.Forward(input(steps-1, rank))), nil)
		for _, p := range m.Parameters() {
			g := p.Grad
			if g == nil {
				g = tensor.New(p.Value.Shape()...)
			}
			want[rank] = append(want[rank], g)
		}
	}
	groups := comm.NewInProcGroups(world, comm.Options{Algorithm: comm.Ring})
	got := make([][]*tensor.Tensor, world)
	runRanks(t, world, func(rank int) error {
		m := newModel(rank)
		d, err := New(m, groups[rank], Options{FindUnusedParameters: true, BucketCapBytes: -1, AutoRebuildBuckets: true})
		if err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			for _, p := range d.Parameters() {
				p.ZeroGrad()
			}
			if err := d.Backward(autograd.Sum(d.Forward(input(s, rank)))); err != nil {
				return err
			}
		}
		if !d.Rebuilt() {
			return fmt.Errorf("the traced rebuild did not fire")
		}
		got[rank] = gradSnapshot(m)
		return nil
	})
	for i := range want[0] {
		avg := tensor.MulScalar(tensor.Add(want[0][i], want[1][i]), 0.5)
		for rank := 0; rank < world; rank++ {
			if !testutil.SameBits(got[rank][i], avg) {
				t.Fatalf("rank %d parameter %d: Grad %v, want the average %v", rank, i, got[rank][i], avg)
			}
		}
	}
}

// TestDDPOverTCP exercises the full stack across real TCP sockets:
// rendezvous store, TCP mesh, ring AllReduce, DDP reducer — and checks
// the resulting gradients against the averaged local reference.
func TestDDPOverTCP(t *testing.T) {
	srv, err := store.ServeTCP("127.0.0.1:0", 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const world = 3
	models := make([]nn.Module, world)
	inputs := make([]*tensor.Tensor, world)
	targets := make([]*tensor.Tensor, world)
	dataRng := rand.New(rand.NewSource(1))
	for r := 0; r < world; r++ {
		inputs[r] = tensor.RandN(dataRng, 1, 2, 4)
		targets[r] = tensor.RandN(dataRng, 1, 2, 2)
	}

	var wg sync.WaitGroup
	errs := make([]error, world)
	groups := make([]comm.ProcessGroup, world)
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = func() error {
				client, err := store.DialTCP(srv.Addr())
				if err != nil {
					return err
				}
				defer client.Close()
				pg, err := comm.NewTCPGroup(rank, world, client, "ddp-test", comm.Options{})
				if err != nil {
					return err
				}
				groups[rank] = pg
				models[rank] = buildMLP(int64(rank), 4, 6, 2) // different seeds
				d, err := New(models[rank], pg, Options{BucketCapBytes: 128})
				if err != nil {
					return err
				}
				opt := optim.NewSGD(d.Parameters(), 0.05)
				opt.Momentum = 0.9
				for it := 0; it < 3; it++ {
					opt.ZeroGrad()
					out := d.Forward(autograd.Constant(inputs[rank]))
					if err := d.Backward(autograd.MSELoss(out, autograd.Constant(targets[rank]))); err != nil {
						return err
					}
					opt.Step()
				}
				return nil
			}()
		}(r)
	}
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	defer func() {
		for _, g := range groups {
			if g != nil {
				g.Close()
			}
		}
	}()

	// All replicas bitwise identical after training over real sockets.
	for rank := 1; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Value.Equal(models[0].Parameters()[i].Value) {
				t.Fatalf("rank %d param %d differs from rank 0 after TCP training", rank, i)
			}
		}
	}
}

// TestDDPGradientAveragingProperty: for random shapes, world sizes,
// bucket caps and data, DDP gradients equal the average of per-rank
// local gradients. This is the reducer's core contract, fuzzed.
func TestDDPGradientAveragingProperty(t *testing.T) {
	f := func(seed int64, worldSeed, inSeed, hidSeed, capSeed uint8) bool {
		world := int(worldSeed%4) + 1
		in := int(inSeed%6) + 2
		hidden := int(hidSeed%8) + 2
		capBytes := []int{-1, 64, 1024, 1 << 20}[capSeed%4]

		dataRng := rand.New(rand.NewSource(seed))
		inputs := make([]*tensor.Tensor, world)
		targets := make([]*tensor.Tensor, world)
		for r := 0; r < world; r++ {
			inputs[r] = tensor.RandN(dataRng, 1, 2, in)
			targets[r] = tensor.RandN(dataRng, 1, 2, 2)
		}

		groups := comm.NewInProcGroups(world, comm.Options{})
		defer func() {
			for _, g := range groups {
				g.Close()
			}
		}()
		ddpModels := make([]nn.Module, world)
		var wg sync.WaitGroup
		failed := false
		var mu sync.Mutex
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				ddpModels[rank] = buildMLP(seed, in, hidden, 2)
				d, err := New(ddpModels[rank], groups[rank], Options{BucketCapBytes: capBytes})
				if err == nil {
					out := d.Forward(autograd.Constant(inputs[rank]))
					err = d.Backward(autograd.MSELoss(out, autograd.Constant(targets[rank])))
				}
				if err != nil {
					mu.Lock()
					failed = true
					mu.Unlock()
				}
			}(r)
		}
		wg.Wait()
		if failed {
			return false
		}

		// Reference: average of local gradients.
		var want []*tensor.Tensor
		for r := 0; r < world; r++ {
			local := buildMLP(seed, in, hidden, 2)
			out := local.Forward(autograd.Constant(inputs[r]))
			autograd.Backward(autograd.MSELoss(out, autograd.Constant(targets[r])), nil)
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
			tensor.ScaleInPlace(want[i], 1/float32(world))
		}
		for rank := 0; rank < world; rank++ {
			for i, p := range ddpModels[rank].Parameters() {
				if !p.Grad.AllClose(want[i], 1e-4, 1e-6) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
