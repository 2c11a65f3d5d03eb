package fsdp

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/reduce"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/testutil/leakcheck"
)

// TestMain fails the binary when a goroutine outlives the tests: every
// test closes the groups it builds, so what is left over is a gather or
// a group worker that a failure path forgot.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}

// Fixture dimensions chosen so the reverse-order cap-256B packing
// yields buckets of 24, 7, and 35 elements: multiple buckets, none
// divisible by most world sizes, and a 7-element bucket that leaves
// some ranks an EMPTY chunk at world 8 — the uneven-tail edge cases
// the bitwise contract must survive.
const (
	tIn, tHidden, tOut = 5, 7, 3
	tCap               = 96 // bytes → 24 float32 elements
	tLR, tMomentum     = 0.05, 0.9
	tIters, tPerRank   = 5, 2
)

func buildMLP(seed int64, in, hidden, out int) nn.Module {
	rng := rand.New(rand.NewSource(seed))
	return nn.NewSequential(
		nn.NewLinear(rng, "fc1", in, hidden),
		nn.Tanh{},
		nn.NewLinear(rng, "fc2", hidden, out),
	)
}

// fixture is a model, its bucket cap and its input/output widths: what
// the agreement helpers need to train the same task under ddp and fsdp.
type fixture struct {
	name    string
	build   func() nn.Module
	cap     int
	in, out int
}

var (
	// mlpFixture is the uneven-tail MLP described above.
	mlpFixture = fixture{"mlp", func() nn.Module { return buildMLP(3, tIn, tHidden, tOut) }, tCap, tIn, tOut}
	// bertFixture is the benchmark's zero3_bert_shaped layout: four
	// buckets, and every transformer block straddles two of them by a
	// 128-element tail, so the first three units read two buckets each,
	// and the plan frees and re-gathers one of the four (bucket 3) for
	// backward.
	bertFixture = fixture{"bert-1MiB", func() nn.Module { return models.NewTinyTransformer(3, 128, 4, 512, 4) }, 1 << 20, 128, 128}
	// checkpointedFixture wraps the MLP's layers in activation
	// checkpointing: the recompute runs in backward, after the unit's
	// re-gather hook, and reads the re-gathered parameters.
	checkpointedFixture = fixture{"checkpointed", func() nn.Module {
		rng := rand.New(rand.NewSource(3))
		return nn.NewSequential(
			nn.NewCheckpointed(nn.NewSequential(nn.NewLinear(rng, "fc1", tIn, tHidden), nn.Tanh{})),
			nn.NewCheckpointed(nn.NewSequential(nn.NewLinear(rng, "fc2", tHidden, tHidden), nn.Tanh{})),
			nn.NewLinear(rng, "fc3", tHidden, tOut),
		)
	}, tCap, tIn, tOut}
)

// inProcGroups builds a world of in-process Ring groups that are closed
// when the test ends.
func inProcGroups(t *testing.T, world int) []comm.ProcessGroup {
	t.Helper()
	groups := comm.NewInProcGroups(world, comm.Options{})
	t.Cleanup(func() {
		for _, g := range groups {
			g.Close()
		}
	})
	return groups
}

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

// makeData builds iters global batches; every strategy's rank r trains
// on rows [r*perRank, (r+1)*perRank) of each, so all runs see
// identical data.
func (fx fixture) makeData(world, iters int) (batches, labels []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(42))
	batches = make([]*tensor.Tensor, iters)
	labels = make([]*tensor.Tensor, iters)
	for i := range batches {
		batches[i] = tensor.RandN(rng, 1, world*tPerRank, fx.in)
		labels[i] = tensor.RandN(rng, 1, world*tPerRank, fx.out)
	}
	return
}

func shardRows(t *tensor.Tensor, rank, perRank int) *tensor.Tensor {
	cols := t.Dims(1)
	out := tensor.New(perRank, cols)
	copy(out.Data(), t.Data()[rank*perRank*cols:(rank+1)*perRank*cols])
	return out
}

// ddpReference trains the DDP+SGD reference trajectory (Ring groups,
// same bucket cap) and returns rank 0's final parameters.
func (fx fixture) ddpReference(t *testing.T, world int, batches, labels []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	groups := inProcGroups(t, world)
	models := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = fx.build()
		var opt *optim.SGD
		return fx.ddpTrainRank(models[rank], groups[rank], rank, batches, labels, &opt)
	})
	params := models[0].Parameters()
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	// Sanity: all reference replicas identical.
	for rank := 1; rank < world; rank++ {
		for i, p := range models[rank].Parameters() {
			if !p.Value.Equal(out[i]) {
				t.Fatalf("reference rank %d param %d differs from rank 0", rank, i)
			}
		}
	}
	return out
}

// ddpTrainRank runs one rank of the real DDP + optim.SGD reference
// trajectory with the SAME bucket cap the fsdp runs use, leaving the
// optimizer in *opt for state comparisons.
func (fx fixture) ddpTrainRank(model nn.Module, pg comm.ProcessGroup, rank int, batches, labels []*tensor.Tensor, opt **optim.SGD) error {
	d, err := ddp.New(model, pg, ddp.Options{BucketCapBytes: fx.cap})
	if err != nil {
		return err
	}
	o := optim.NewSGD(d.Parameters(), tLR)
	o.Momentum = tMomentum
	*opt = o
	for i := range batches {
		o.ZeroGrad()
		x := autograd.Constant(shardRows(batches[i], rank, tPerRank))
		y := autograd.Constant(shardRows(labels[i], rank, tPerRank))
		if err := d.Backward(autograd.MSELoss(d.Forward(x), y)); err != nil {
			return err
		}
		o.Step()
	}
	return nil
}

func (fx fixture) trainFSDP(t *testing.T, world int, strategy Strategy, codec func() comm.Codec, batches, labels []*tensor.Tensor) []*FSDP {
	t.Helper()
	groups := inProcGroups(t, world)
	wrappers := make([]*FSDP, world)
	runRanks(t, world, func(rank int) error {
		f, err := New(fx.build(), groups[rank], Options{
			Strategy:       strategy,
			BucketCapBytes: fx.cap,
			LR:             tLR,
			Momentum:       tMomentum,
			NewCodec:       codec,
		})
		if err != nil {
			return err
		}
		wrappers[rank] = f
		return fsdpTrainRank(f, rank, batches, labels)
	})
	// Gather ZeRO-3 shards so full parameters are comparable.
	runRanks(t, world, func(rank int) error { return wrappers[rank].Materialize() })
	return wrappers
}

func fsdpTrainRank(f *FSDP, rank int, batches, labels []*tensor.Tensor) error {
	for i := range batches {
		x := autograd.Constant(shardRows(batches[i], rank, tPerRank))
		y := autograd.Constant(shardRows(labels[i], rank, tPerRank))
		loss := autograd.MSELoss(f.Forward(x), y)
		if err := f.Backward(loss); err != nil {
			return err
		}
	}
	return nil
}

// checkAgreement trains the fixture under DDP + SGD and under both
// sharded strategies on the same data and fails unless every rank of
// every sharded run ends on the DDP parameters bit for bit.
func (fx fixture) checkAgreement(t *testing.T, world, iters int) {
	t.Helper()
	batches, labels := fx.makeData(world, iters)
	ref := fx.ddpReference(t, world, batches, labels)
	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		wrappers := fx.trainFSDP(t, world, strategy, nil, batches, labels)
		for rank, f := range wrappers {
			for i, p := range f.Parameters() {
				if !p.Value.Equal(ref[i]) {
					t.Fatalf("%s %v world %d rank %d param %d differs from DDP reference (max diff %v)",
						fx.name, strategy, world, rank, i, p.Value.MaxAbsDiff(ref[i]))
				}
			}
		}
	}
}

// TestAgreementWithDDPBitwise is the tentpole acceptance check: over a
// Ring process group, ZeRO-2 and ZeRO-3 must walk the exact parameter
// trajectory of DDP + momentum SGD — bitwise — for every world size 1
// through 8, including non-powers-of-two and the empty-chunk tails.
func TestAgreementWithDDPBitwise(t *testing.T) {
	for world := 1; world <= 8; world++ {
		world := world
		t.Run(worldName(world), func(t *testing.T) {
			t.Parallel()
			mlpFixture.checkAgreement(t, world, tIters)
		})
	}
}

// TestAgreementWhereThePlanIsNonTrivial repeats the bitwise check on
// the layouts that exercise the gather plan: the benchmark's
// transformer at a 1 MiB cap (units straddling buckets; at world 3 the
// chunk tails are uneven) and checkpointed units, whose recompute reads
// parameters the backward hook re-gathered.
func TestAgreementWhereThePlanIsNonTrivial(t *testing.T) {
	for _, fx := range []fixture{bertFixture, checkpointedFixture} {
		for world := 1; world <= 4; world++ {
			t.Run(fx.name+"/"+worldName(world), func(t *testing.T) {
				t.Parallel()
				fx.checkAgreement(t, world, 3)
			})
		}
	}
}

func worldName(world int) string {
	return "world" + string(rune('0'+world))
}

// TestAgreementOverTCP repeats the bitwise agreement over real TCP
// sockets at world 3. Ring order and fold order are transport
// independent, so the TCP trajectory must equal the in-proc reference.
func TestAgreementOverTCP(t *testing.T) {
	const world = 3
	batches, labels := mlpFixture.makeData(world, 3)
	ref := mlpFixture.ddpReference(t, world, batches[:3], labels[:3])

	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := store.ServeTCP(ln, 20*time.Second)
		wrappers := make([]*FSDP, world)
		groups := make([]comm.ProcessGroup, world)
		runRanks(t, world, func(rank int) error {
			client, err := store.DialTCP(ln.Addr().String())
			if err != nil {
				return err
			}
			defer client.Close()
			pg, err := comm.NewTCPGroup(rank, world, client, "fsdp-"+strategy.String(), comm.Options{})
			if err != nil {
				return err
			}
			groups[rank] = pg
			f, err := New(buildMLP(3, tIn, tHidden, tOut), pg, Options{
				Strategy:       strategy,
				BucketCapBytes: tCap,
				LR:             tLR,
				Momentum:       tMomentum,
			})
			if err != nil {
				return err
			}
			wrappers[rank] = f
			return fsdpTrainRank(f, rank, batches[:3], labels[:3])
		})
		runRanks(t, world, func(rank int) error { return wrappers[rank].Materialize() })
		for rank, f := range wrappers {
			for i, p := range f.Parameters() {
				if !p.Value.Equal(ref[i]) {
					t.Fatalf("%v over TCP rank %d param %d differs from reference", strategy, rank, i)
				}
			}
		}
		for _, g := range groups {
			if g != nil {
				g.Close()
			}
		}
		srv.Close()
	}
}

// TestZeRO3ShardsExceedBudget trains a model whose full parameter set
// would not fit a per-rank budget of (full size): ZeRO-3 must never
// materialize all parameters at once, so peak residency stays strictly
// below the full model while persistent state is ~1/world of it.
func TestZeRO3ShardsExceedBudget(t *testing.T) {
	const world = 4
	const in, hidden, out = 32, 64, 32 // fc1.W=2048, fc2.W=2048 elems
	groups := inProcGroups(t, world)
	batches, labels := func() (*tensor.Tensor, *tensor.Tensor) {
		rng := rand.New(rand.NewSource(5))
		return tensor.RandN(rng, 1, world, in), tensor.RandN(rng, 1, world, out)
	}()
	wrappers := make([]*FSDP, world)
	runRanks(t, world, func(rank int) error {
		f, err := New(buildMLP(11, in, hidden, out), groups[rank], Options{
			Strategy:       ZeRO3,
			BucketCapBytes: 4096, // 1024-elem buckets: big layers split
			LR:             tLR,
			Momentum:       tMomentum,
		})
		if err != nil {
			return err
		}
		wrappers[rank] = f
		x := autograd.Constant(shardRows(batches, rank, 1))
		y := autograd.Constant(shardRows(labels, rank, 1))
		return f.Backward(autograd.MSELoss(f.Forward(x), y))
	})

	for rank, f := range wrappers {
		s := f.Stats()
		if s.FullParamBytes == 0 || s.Reduces == 0 || s.Gathers == 0 {
			t.Fatalf("rank %d stats not populated: %+v", rank, s)
		}
		// Per-rank budget: the full model must NOT fit transiently.
		if s.PeakParamBytes >= s.FullParamBytes {
			t.Fatalf("rank %d ZeRO-3 peak %dB reached full model %dB — parameters were fully materialized",
				rank, s.PeakParamBytes, s.FullParamBytes)
		}
		// Persistent parameter + optimizer state ≈ 2/world of full
		// (each is one chunk of every bucket; chunk rounding adds at
		// most world*numBuckets elements of slack).
		slack := 4 * world * f.NumBuckets()
		want := 2*s.FullParamBytes/world + 2*slack
		if got := f.ShardBytes(); got > want {
			t.Fatalf("rank %d persistent shard bytes %d exceed 2/world bound %d", rank, got, want)
		}
		if s.ShardParamBytes >= s.FullParamBytes {
			t.Fatalf("rank %d ZeRO-3 shard bytes %d not smaller than full %d", rank, s.ShardParamBytes, s.FullParamBytes)
		}
	}
}

// TestZeRO2HoldsShardsBetweenSteps pins what the ZeRO-2 preset's
// whole-model budget means for memory: between steps it persists the
// same parameter shards as ZeRO-3 and 1/world of the optimizer state,
// while its peak — every bucket gathered at once — is the full model,
// gathered once per bucket per step and nothing more. Nothing stays
// gathered after a step: Materialize has to gather every bucket again.
func TestZeRO2HoldsShardsBetweenSteps(t *testing.T) {
	const world = 4
	batches, labels := mlpFixture.makeData(world, tIters)
	wrappers := map[Strategy][]*FSDP{}
	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		groups := inProcGroups(t, world)
		wrappers[strategy] = make([]*FSDP, world)
		runRanks(t, world, func(rank int) error {
			f, err := New(mlpFixture.build(), groups[rank], Options{
				Strategy: strategy, BucketCapBytes: tCap, LR: tLR, Momentum: tMomentum,
			})
			if err != nil {
				return err
			}
			wrappers[strategy][rank] = f
			return fsdpTrainRank(f, rank, batches, labels)
		})
	}
	z2 := wrappers[ZeRO2]
	for rank, f := range z2 {
		s, z3 := f.Stats(), wrappers[ZeRO3][rank].Stats()
		if s.ShardParamBytes != z3.ShardParamBytes || s.ShardParamBytes >= s.FullParamBytes {
			t.Fatalf("rank %d ZeRO-2 shard bytes %d, ZeRO-3 %d, full %d", rank, s.ShardParamBytes, z3.ShardParamBytes, s.FullParamBytes)
		}
		if s.PeakParamBytes != s.FullParamBytes || s.BudgetParamBytes != s.FullParamBytes {
			t.Fatalf("rank %d ZeRO-2 peak %d and budget %d, want the full model %d", rank, s.PeakParamBytes, s.BudgetParamBytes, s.FullParamBytes)
		}
		if want := tIters * f.NumBuckets(); s.Gathers != want {
			t.Fatalf("rank %d ZeRO-2 gathered %d times in %d steps of %d buckets", rank, s.Gathers, tIters, f.NumBuckets())
		}
		slack := 4 * world * f.NumBuckets()
		if s.OptimizerBytes > s.FullParamBytes/world+slack {
			t.Fatalf("rank %d ZeRO-2 optimizer bytes %d not ~1/world of %d", rank, s.OptimizerBytes, s.FullParamBytes)
		}
	}
	runRanks(t, world, func(rank int) error { return z2[rank].Materialize() })
	for rank, f := range z2 {
		if got, want := f.Stats().Gathers, (tIters+1)*f.NumBuckets(); got != want {
			t.Fatalf("rank %d: %d gathers after Materialize, want %d: a bucket stayed gathered between steps", rank, got, want)
		}
	}
}

// TestRebindRestartsThePeak: Rebind restarts the peak at the rebound
// residency, the shards, as New starts it. A ZeRO-3 wrapper of the
// benchmark layout built at world 1, where the whole model is resident,
// and rebound to world 2 reports a peak within the new budget — right
// after Rebind and after a step there.
func TestRebindRestartsThePeak(t *testing.T) {
	const world = 2
	solo := []comm.ProcessGroup{inProcGroups(t, 1)[0], inProcGroups(t, 1)[0]}
	wide := inProcGroups(t, world)
	batches, labels := bertFixture.makeData(world, 1)
	runRanks(t, world, func(rank int) error {
		f, err := New(bertFixture.build(), solo[rank], Options{Strategy: ZeRO3, BucketCapBytes: bertFixture.cap, LR: tLR, Momentum: tMomentum})
		if err != nil {
			return err
		}
		if got, full := f.Stats().PeakParamBytes, f.Stats().FullParamBytes; got != full {
			return fmt.Errorf("world 1: peak %d, want the whole model's %d", got, full)
		}
		// At world 1 the model's tensors hold the full parameters Rebind
		// re-shards from.
		if err := f.Rebind(wide[rank]); err != nil {
			return err
		}
		if s := f.Stats(); s.PeakParamBytes != s.ShardParamBytes || s.PeakParamBytes > s.BudgetParamBytes {
			return fmt.Errorf("after Rebind: peak %d, want the %d shard bytes, within the budget %d", s.PeakParamBytes, s.ShardParamBytes, s.BudgetParamBytes)
		}
		if err := fsdpTrainRank(f, rank, batches, labels); err != nil {
			return err
		}
		if s := f.Stats(); s.PeakParamBytes > s.BudgetParamBytes {
			return fmt.Errorf("after a step at world 2: peak %d above the budget %d", s.PeakParamBytes, s.BudgetParamBytes)
		}
		return nil
	})
}

// TestCaptureStateMatchesSGDAndRoundTrips checks the checkpoint path:
// the collectively gathered momentum state must be bitwise the state
// optim.SGD holds after the identical DDP trajectory, and must survive
// an InstallState round trip.
func TestCaptureStateMatchesSGDAndRoundTrips(t *testing.T) {
	const world = 3
	batches, labels := mlpFixture.makeData(world, tIters)

	// Reference SGD state from the DDP run.
	groups := inProcGroups(t, world)
	var refState []float32
	models := make([]nn.Module, world)
	opts := make([]*optim.SGD, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = mlpFixture.build()
		return mlpFixture.ddpTrainRank(models[rank], groups[rank], rank, batches, labels, &opts[rank])
	})
	refState = opts[0].FlatState()

	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		wrappers := mlpFixture.trainFSDP(t, world, strategy, nil, batches, labels)
		capture := func(into [][]float32) {
			runRanks(t, world, func(rank int) error {
				st, err := wrappers[rank].CaptureState() // collective
				into[rank] = st.Optimizer
				return err
			})
		}
		states := make([][]float32, world)
		capture(states)
		for rank := 0; rank < world; rank++ {
			if !sameF32(states[rank], refState) {
				t.Fatalf("%v rank %d captured state differs from SGD reference state", strategy, rank)
			}
		}
		// Round trip: zero the shards, restore, re-gather.
		runRanks(t, world, func(rank int) error {
			f := wrappers[rank]
			if err := f.InstallState(replica.State{Optimizer: make([]float32, len(refState))}); err != nil {
				return err
			}
			return f.InstallState(replica.State{Optimizer: states[rank]})
		})
		again := make([][]float32, world)
		capture(again)
		for rank := 0; rank < world; rank++ {
			if !sameF32(again[rank], refState) {
				t.Fatalf("%v rank %d captured state did not survive round trip", strategy, rank)
			}
		}
	}
}

// TestCompressedShardedReduceSelfConsistent smoke-tests the wire-codec
// path: compressed sharded runs are NOT bitwise-comparable to DDP (the
// fold skips DDP's second quantization), but all replicas must stay
// bitwise identical to each other and residual state must be tracked —
// on the MLP and on the transformer layout, where gathers run ahead of
// need while compressed reductions share the group's worker.
func TestCompressedShardedReduceSelfConsistent(t *testing.T) {
	fp16 := func() comm.Codec { return comm.Float16Codec{} }
	for _, tc := range []struct {
		fx    fixture
		world int
	}{{mlpFixture, 4}, {bertFixture, 3}} {
		for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
			batches, labels := tc.fx.makeData(tc.world, 3)
			wrappers := tc.fx.trainFSDP(t, tc.world, strategy, fp16, batches, labels)
			ref := wrappers[0].Parameters()
			for rank := 1; rank < tc.world; rank++ {
				for i, p := range wrappers[rank].Parameters() {
					if !p.Value.Equal(ref[i].Value) {
						t.Fatalf("%s %v compressed rank %d param %d differs from rank 0", tc.fx.name, strategy, rank, i)
					}
				}
			}
			if got := wrappers[0].Stats().ResidualBytes; got == 0 {
				t.Fatalf("%s %v compressed run reports zero residual bytes", tc.fx.name, strategy)
			}
			runRanks(t, tc.world, func(rank int) error {
				st, err := wrappers[rank].CaptureState()
				if err == nil && len(st.Residuals) == 0 {
					err = fmt.Errorf("%v compressed run has empty residual state", strategy)
				}
				return err
			})
		}
	}
}

// TestStrategyNamesItsBudget: each preset spells the name replica.Budget
// maps to its budget, and a value that is no preset is refused by New.
func TestStrategyNamesItsBudget(t *testing.T) {
	if ZeRO2.String() != "zero2" || ZeRO3.String() != "zero3" {
		t.Fatal("Strategy.String spelling changed")
	}
	// A value that is not a preset has no budget: New refuses it, by
	// name, instead of training it as one.
	if _, err := New(mlpFixture.build(), inProcGroups(t, 1)[0], Options{Strategy: Strategy(2)}); err == nil || !strings.Contains(err.Error(), "Strategy(2)") {
		t.Fatalf("New with Strategy(2): got %v, want it refused by name", err)
	}
}

func sameF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scriptedGroup is a comm.ShardedGroup for one rank of a pretend world,
// driven from the test's own goroutine. It moves no data. An AllGatherV
// it hands out completes only inside Wait, when the test's release
// script lets it — the latest any gather can land — and launches,
// waits and landings go to an event log the schedule tests read back,
// each naming the gather's buckets in ascending order. Every other
// collective completes at once.
type scriptedGroup struct {
	rank, world int
	events      []string
	// release, when non-nil, decides how the n-th launched gather
	// (counting from 0) ends once somebody waits for it.
	release func(n int, buckets []int) error
	// gathering lists the wrapper's buckets whose gather is launched and
	// not landed: those of the gather being launched, and those of the
	// gathers out.
	gathering func() []int
	out       map[int]bool // the buckets of the gathers handed out and not waited for
	waited    []int        // waits per launched gather
}

func (g *scriptedGroup) logf(format string, args ...any) {
	g.events = append(g.events, fmt.Sprintf(format, args...))
}

type scriptedGather struct {
	g       *scriptedGroup
	n       int
	buckets []int
}

func (w scriptedGather) Wait() error {
	w.g.waited[w.n]++
	w.g.logf("wait %v", w.buckets)
	var err error
	if w.g.release != nil {
		err = w.g.release(w.n, w.buckets)
	}
	for _, b := range w.buckets {
		delete(w.g.out, b)
	}
	w.g.logf("landed %v", w.buckets)
	return err
}

func (g *scriptedGroup) Rank() int { return g.rank }
func (g *scriptedGroup) Size() int { return g.world }

// AllGatherV hands out a gather of the buckets the wrapper has marked
// gathering since the last launch.
func (g *scriptedGroup) AllGatherV([]float32) comm.Work {
	var buckets []int
	for _, b := range g.gathering() {
		if !g.out[b] {
			buckets = append(buckets, b)
			g.out[b] = true
		}
	}
	if len(buckets) == 0 {
		return comm.CompletedWork(nil) // CaptureState's momentum gathers
	}
	g.logf("launch %v", buckets)
	g.waited = append(g.waited, 0)
	return scriptedGather{g: g, n: len(g.waited) - 1, buckets: buckets}
}

func (g *scriptedGroup) ReduceScatterV([]float32, comm.ReduceOp) comm.Work {
	return comm.CompletedWork(nil)
}

func (g *scriptedGroup) CompressedReduceScatterV([]float32, comm.ReduceOp, comm.WireCodec, []float32) comm.Work {
	return comm.CompletedWork(nil)
}
func (g *scriptedGroup) AllReduce([]float32, comm.ReduceOp) comm.Work { return comm.CompletedWork(nil) }
func (g *scriptedGroup) Broadcast([]float32, int) comm.Work           { return comm.CompletedWork(nil) }
func (g *scriptedGroup) AllGather([][]float32, []float32) comm.Work   { return comm.CompletedWork(nil) }
func (g *scriptedGroup) Barrier() comm.Work                           { return comm.CompletedWork(nil) }
func (g *scriptedGroup) Close() error                                 { return nil }

// Recorded returns no collectives: a scripted world never measures its
// link, and runs the plan it was installed with.
func (g *scriptedGroup) Recorded() []comm.Record { return nil }

var _ comm.ShardedGroup = (*scriptedGroup)(nil)

// loggedUnit logs when the wrapped unit's forward runs and when its
// backward is about to (a hook on its own output, which fires after the
// wrapper's hook on the same value and before the unit's gradient math),
// records the parameter bytes resident at that moment, and notes any of
// the unit's buckets that has not landed by then.
type loggedUnit struct {
	nn.Module
	u int
	s *scripted
}

func (l loggedUnit) note(event string) {
	s, e := l.s, fmt.Sprintf("%s %d", event, l.u)
	s.g.logf("%s", e)
	s.seen[e] = s.f.residentParam
	for _, b := range s.f.unitBuckets[l.u] {
		if s.f.state[b] != gathered {
			s.unlanded = append(s.unlanded, fmt.Sprintf("%s ran before bucket %d landed", e, b))
		}
	}
}

func (l loggedUnit) Forward(x *autograd.Variable) *autograd.Variable {
	l.note("forward")
	return autograd.BackwardHook(l.Module.Forward(x), func() { l.note("backward") })
}

// scripted is one rank's ZeRO-3 wrapper over a scriptedGroup.
type scripted struct {
	f        *FSDP
	g        *scriptedGroup
	seen     map[string]int // event → resident parameter bytes when it was logged
	unlanded []string       // units that ran on a bucket still sharded or in flight
	x, y     *autograd.Variable
}

// newScripted wraps the fixture's model, unit by unit in loggedUnits,
// for rank of world.
func newScripted(t *testing.T, fx fixture, rank, world int) *scripted {
	t.Helper()
	s := &scripted{g: &scriptedGroup{rank: rank, world: world, out: map[int]bool{}}, seen: map[string]int{}}
	seq := nn.NewSequential()
	for u, unit := range fx.build().(*nn.Sequential).Children() {
		seq.Append(loggedUnit{Module: unit, u: u, s: s})
	}
	f, err := New(seq, s.g, Options{Strategy: ZeRO3, BucketCapBytes: fx.cap, LR: tLR, Momentum: tMomentum})
	if err != nil {
		t.Fatal(err)
	}
	s.f = f
	s.g.gathering = func() (buckets []int) {
		for b, st := range f.state {
			if st == gathering {
				buckets = append(buckets, b)
			}
		}
		return buckets
	}
	batches, labels := fx.makeData(1, 1)
	s.x, s.y = autograd.Constant(batches[0]), autograd.Constant(labels[0])
	return s
}

// step runs one training step and returns the events it logged.
func (s *scripted) step() ([]string, error) {
	first := len(s.g.events)
	err := s.f.Backward(autograd.MSELoss(s.f.Forward(s.x), s.y))
	return s.g.events[first:], err
}

// launchesIn lists the gathers launched in events, each as its buckets.
func launchesIn(events []string) []string {
	var out []string
	for _, e := range events {
		if buckets, ok := strings.CutPrefix(e, "launch "); ok {
			out = append(out, buckets)
		}
	}
	return out
}

// sortedGroups is the plan's gathers in launch order, each with its
// buckets in ascending order, as the event log names them.
func sortedGroups(f *FSDP) []string {
	var out []string
	for _, g := range f.plan.Gathers {
		out = append(out, fmt.Sprint(slices.Sorted(slices.Values(g.Buckets))))
	}
	return out
}

// planSeq lists the buckets the plan gathers, in launch order, once per
// gather.
func planSeq(f *FSDP) string {
	var seq []int
	for _, g := range f.plan.Gathers {
		seq = append(seq, g.Buckets...)
	}
	return fmt.Sprint(seq)
}

// heldAcrossTurn lists the buckets the plan keeps gathered from forward
// into backward: read in forward, and not freed after their last
// forward read.
func heldAcrossTurn(f *FSDP) []int {
	resident := make([]bool, f.NumBuckets())
	for u, buckets := range f.unitBuckets {
		for _, b := range buckets {
			resident[b] = true
		}
		for _, b := range f.plan.Free[u] {
			resident[b] = false
		}
	}
	var held []int
	for b, r := range resident {
		if r {
			held = append(held, b)
		}
	}
	return held
}

// planEvents is the event log the plan prescribes for a step: per
// visit, the launch of each gather it submits, then the wait for each
// gather it is the first to read, whole, then the unit.
func planEvents(f *FSDP) []string {
	n := len(f.units)
	var out []string
	groups, names := f.plan.Gathers, sortedGroups(f)
	for v := range 2 * n {
		for i, g := range groups {
			if g.Submit == v {
				out = append(out, "launch "+names[i])
			}
		}
		for i, g := range groups {
			if g.Wait == v {
				out = append(out, "wait "+names[i], "landed "+names[i])
			}
		}
		if v < n {
			out = append(out, fmt.Sprintf("forward %d", v))
		} else {
			out = append(out, fmt.Sprintf("backward %d", 2*n-1-v))
		}
	}
	return out
}

// scriptedWorld builds a world of scripted wrappers of the fixture and
// runs two steps on each (the first starts from the same sharded state
// as any other), returning the second step's events per rank.
func scriptedWorld(t *testing.T, fx fixture, world int) ([]*scripted, [][]string) {
	t.Helper()
	ranks := make([]*scripted, world)
	events := make([][]string, world)
	for rank := range ranks {
		s := newScripted(t, fx, rank, world)
		if _, err := s.step(); err != nil {
			t.Fatal(err)
		}
		var err error
		if events[rank], err = s.step(); err != nil {
			t.Fatal(err)
		}
		ranks[rank] = s
	}
	return ranks, events
}

// deepFixture has many buckets per unit: one bucket per parameter, four
// parameters in each of the first two units.
var deepFixture = fixture{"deep", func() nn.Module {
	rng := rand.New(rand.NewSource(3))
	return nn.NewSequential(
		nn.NewSequential(nn.NewLinear(rng, "a1", tIn, tHidden), nn.Tanh{}, nn.NewLinear(rng, "a2", tHidden, tHidden)),
		nn.Tanh{},
		nn.NewSequential(nn.NewLinear(rng, "b1", tHidden, tHidden), nn.Tanh{}, nn.NewLinear(rng, "b2", tHidden, tHidden)),
		nn.NewLinear(rng, "c", tHidden, tOut),
		nn.Tanh{},
	)
}, -1, tIn, tOut}

// TestGatherPlanOfTheBenchmarkLayout pins the plan mapUnits emits for
// the benchmark's model before a link is measured (a scripted group
// records no collective, so its wrapper never fits one) — four buckets
// in reverse registration order,
// every block reading its own bucket and, by its last bias, the next
// block's — its four gathers, which are the entries the wrapper runs
// and the ones reduce.Schedule lists, and that a Forward leaves the turn
// as planned: buckets 0, 1 and 2 held, bucket 3 dropped after u0, and no
// gather in flight.
func TestGatherPlanOfTheBenchmarkLayout(t *testing.T) {
	s := newScripted(t, bertFixture, 0, 2)
	f := s.f
	if got := f.Stats().Link; got != (reduce.Link{}) {
		t.Fatalf("installed for the link %+v, want none", got)
	}
	if got := planSeq(f); got != "[3 2 1 0 3]" {
		t.Fatalf("plan launches %s, want [3 2 1 0 3]", got)
	}
	// [3 2] launched and read by u0; [1] launched by u0 and read by u1;
	// [0] launched by u1 and read by u2; [3] launched by u1's backward
	// (visit 8) and read by u0's (visit 9).
	var gathers []string
	for _, g := range f.plan.Gathers {
		gathers = append(gathers, fmt.Sprintf("%v %d→%d", g.Buckets, g.Submit, g.Wait))
	}
	if got := strings.Join(gathers, ", "); got != "[3 2] 0→0, [1] 0→1, [0] 1→2, [3] 8→9" {
		t.Fatalf("plan gathers %s, want [3 2] and [1] at u0, [0] at u1 and [3] at u1's backward", got)
	}
	// The wrapper runs the plan's entries themselves, and the schedule
	// simnet walks lists the same entries.
	var listed reduce.Step
	for _, c := range reduce.Schedule(f.Assignment(), f.unitBuckets, &f.plan) {
		if c.Kind == reduce.AllGatherV {
			listed = append(listed, c)
		}
	}
	if len(f.groups) != len(f.plan.Gathers) || len(listed) != len(f.plan.Gathers) {
		t.Fatalf("the wrapper runs %d gathers and the schedule lists %d of the plan's %d", len(f.groups), len(listed), len(f.plan.Gathers))
	}
	for i := range f.groups {
		if f.groups[i].Collective != &f.plan.Gathers[i] || !reflect.DeepEqual(listed[i], f.plan.Gathers[i]) {
			t.Fatalf("gather %d: the wrapper runs %v, the plan has %v, the schedule lists %v", i, *f.groups[i].Collective, f.plan.Gathers[i], listed[i])
		}
	}
	if got := fmt.Sprint(heldAcrossTurn(f)); got != "[0 1 2]" {
		t.Fatalf("plan holds %s across the turn, want [0 1 2]", got)
	}
	n, forward := len(f.units), 0
	for _, g := range f.plan.Gathers {
		if g.Submit < n {
			forward += len(g.Buckets)
		}
	}
	if forward != 4 {
		t.Fatalf("forward launches %d gathers, want 4: bucket 3's second gather waits for backward to free bucket 0", forward)
	}
	f.Forward(s.x)
	want := []residency{gathered, gathered, gathered, sharded}
	if fmt.Sprint(f.state) != fmt.Sprint(want) || len(f.inflight) != 0 {
		t.Fatalf("after forward buckets stand at %v with %d gathers in flight, want %v and none", f.state, len(f.inflight), want)
	}
	if err := f.Materialize(); err != nil {
		t.Fatal(err)
	}
}

// TestGatherSchedule drives whole steps over the scripted group and
// pins what the plan promises: (a) launches are the plan's groups, one
// collective each, on every rank; (b) each visit launches, then waits
// for every group holding a bucket it reads, then runs, and every bucket
// a unit reads has landed before it runs; (c) at no visit is more
// resident than the budget; and (d) a step's collectives gather 2·NB
// buckets less the buckets held across the turn.
func TestGatherSchedule(t *testing.T) {
	for _, fx := range []fixture{deepFixture, bertFixture} {
		t.Run(fx.name, func(t *testing.T) {
			ranks, events := scriptedWorld(t, fx, 3)
			for rank, s := range ranks {
				f := s.f
				// (a) and (b): the event log is the plan's, on every rank.
				if want := planEvents(f); fmt.Sprint(events[rank]) != fmt.Sprint(want) {
					t.Fatalf("rank %d's step:\n%v\nthe plan's:\n%v", rank, events[rank], want)
				}
				if len(s.unlanded) > 0 {
					t.Fatalf("rank %d: %v", rank, s.unlanded)
				}
				// (c) The budget at every visit, and as the peak.
				budget := f.Stats().BudgetParamBytes
				for event, got := range s.seen {
					if got > budget {
						t.Fatalf("rank %d: %d parameter bytes resident at %s, budget %d", rank, got, event, budget)
					}
				}
				if got := f.Stats().PeakParamBytes; got > budget {
					t.Fatalf("rank %d: PeakParamBytes %d above the budget %d", rank, got, budget)
				}
				if got, shards := f.residentParam, f.Stats().ShardParamBytes; got != shards || len(f.inflight) != 0 {
					t.Fatalf("rank %d: %d bytes resident and %d gathers in flight after the step, want the %d shard bytes and none", rank, got, len(f.inflight), shards)
				}
				// (d) 2·NB bucket gathers less the held buckets, in as many
				// collectives as the plan has groups.
				nb, held := f.NumBuckets(), len(heldAcrossTurn(f))
				launches, buckets := launchesIn(events[rank]), 0
				for _, l := range launches {
					buckets += len(strings.Fields(l))
				}
				if buckets != 2*nb-held || len(launches) != len(sortedGroups(f)) {
					t.Fatalf("rank %d: %d bucket gathers in %d collectives in a step, want 2·%d − %d in %d", rank, buckets, len(launches), nb, held, len(sortedGroups(f)))
				}
			}
		})
	}
}

// lin is a 4×4 Linear: 20 parameters, 80 bytes.
func lin(rng *rand.Rand) nn.Module { return nn.NewLinear(rng, "lin", 4, 4) }

// TestGatherPlanSweep plans and runs synthetic unit→bucket layouts (at
// an 80-byte cap every lin is one bucket) and checks what every plan
// must keep at run time: each read landed, no bucket gathered while
// resident, the peak within the budget, the same launches on every
// rank, each of the plan's groups one collective. reduce's tests check
// the plans of random layouts.
func TestGatherPlanSweep(t *testing.T) {
	build := func(units func(rng *rand.Rand) []nn.Module) func() nn.Module {
		return func() nn.Module { return nn.NewSequential(units(rand.New(rand.NewSource(3)))...) }
	}
	for _, tc := range []struct {
		fx      fixture
		buckets string // the layout, pinned
		held    int    // buckets held across the turn, or −1 for any
		seq     string // the plan's launches, or "" for any
	}{
		{fixture{"eight one-bucket units", build(func(rng *rand.Rand) []nn.Module {
			var units []nn.Module
			for range 8 {
				units = append(units, lin(rng))
			}
			return units
		}), 80, 4, 4}, "[[7] [6] [5] [4] [3] [2] [1] [0]]", 2, ""},
		{fixture{"three-bucket first unit", build(func(rng *rand.Rand) []nn.Module {
			return []nn.Module{nn.NewSequential(lin(rng), nn.Tanh{}, lin(rng), nn.Tanh{}, lin(rng)), lin(rng), lin(rng)}
		}), 80, 4, 4}, "[[4 3 2] [1] [0]]", -1, ""},
		{fixture{"last unit spans two buckets", build(func(rng *rand.Rand) []nn.Module {
			return []nn.Module{lin(rng), nn.Tanh{}, lin(rng), nn.NewSequential(lin(rng), nn.Tanh{}, lin(rng))}
		}), 80, 4, 4}, "[[3] [] [2] [1 0]]", -1, ""},
		{fixture{"cap -1", mlpFixture.build, -1, tIn, tOut}, "[[3 2] [] [1 0]]", -1, ""},
		// Bucket 2 is read again at unit 2, so it is held across unit 1
		// instead of gathered twice. Making room for bucket 0 there drops
		// bucket 3, the larger of the two buckets next read by unit 0's
		// backward, and only bucket 3 is gathered again.
		{fixture{"a bucket read again after a unit without parameters", build(func(rng *rand.Rand) []nn.Module {
			return []nn.Module{nn.NewSequential(lin(rng), nn.Tanh{}, lin(rng)), nn.Tanh{}, nn.NewSequential(lin(rng), nn.Tanh{}, lin(rng), nn.Tanh{}, lin(rng))}
		}), 120, 4, 4}, "[[4 3 2] [] [2 1 0]]", 4, "[4 3 2 1 0 3]"},
	} {
		t.Run(tc.fx.name, func(t *testing.T) {
			ranks, events := scriptedWorld(t, tc.fx, 3)
			f := ranks[0].f
			if got := fmt.Sprint(f.unitBuckets); got != tc.buckets {
				t.Fatalf("layout %s, want %s", got, tc.buckets)
			}
			for rank, s := range ranks {
				if len(s.unlanded) > 0 {
					t.Fatalf("rank %d: %v", rank, s.unlanded)
				}
				// A planned gather of a resident bucket would be skipped.
				if got, want := launchesIn(events[rank]), sortedGroups(f); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("rank %d launched %v, rank 0's plan launches %v", rank, got, want)
				}
				if got, budget := s.f.Stats().PeakParamBytes, s.f.Stats().BudgetParamBytes; got > budget {
					t.Fatalf("rank %d: PeakParamBytes %d above the budget %d", rank, got, budget)
				}
			}
			if held := heldAcrossTurn(f); tc.held >= 0 && len(held) != tc.held {
				t.Fatalf("the plan holds %v across the turn, want %d buckets", held, tc.held)
			}
			if got := planSeq(f); tc.seq != "" && got != tc.seq {
				t.Fatalf("the plan launches %s, want %s", got, tc.seq)
			}
		})
	}
}

// TestEvaluationForwardKeepsWhatItHolds: a Forward that follows a
// Forward (evaluation, no Backward in between) does not gather again
// what it holds — of u0's group it gathers only bucket 3, in place; a
// Forward after Materialize gathers nothing at all, as its plan drops
// bucket 3 after unit 0 and gathers it again only in backward.
// Materialize gathers what is sharded of each launch group as one
// collective. No Forward leaves a gather in flight on this layout.
func TestEvaluationForwardKeepsWhatItHolds(t *testing.T) {
	s := newScripted(t, bertFixture, 1, 2)
	f := s.f
	f.Forward(s.x)
	if got := launchesIn(s.g.events); fmt.Sprint(got) != "[[2 3] [1] [0]]" || len(f.inflight) != 0 {
		t.Fatalf("first forward launched %v and left %d in flight, want u0's two groups and u1's, every bucket once, and none", got, len(f.inflight))
	}
	first := len(s.g.events)
	f.Forward(s.x)
	if got := launchesIn(s.g.events[first:]); fmt.Sprint(got) != "[[3]]" {
		t.Fatalf("second forward launched %v, want [[3]]: buckets 0, 1 and 2 were held", got)
	}
	first = len(s.g.events)
	f.freeBucket(2)
	if err := f.Materialize(); err != nil {
		t.Fatal(err)
	}
	if got := launchesIn(s.g.events[first:]); fmt.Sprint(got) != "[[2 3]]" {
		t.Fatalf("Materialize launched %v, want one gather of u0's group, buckets 2 and 3, both sharded", got)
	}
	if got := f.residentParam; got != f.Stats().FullParamBytes {
		t.Fatalf("%d bytes resident after Materialize, want the full %d", got, f.Stats().FullParamBytes)
	}
	first = len(s.g.events)
	f.Forward(s.x)
	if got := launchesIn(s.g.events[first:]); len(got) != 0 {
		t.Fatalf("forward after Materialize launched %v, want nothing: it holds every bucket it reads", got)
	}
	if err := f.Materialize(); err != nil {
		t.Fatal(err)
	}
	for n, waits := range s.g.waited {
		if waits != 1 {
			t.Fatalf("gather %d was waited for %d times, want once", n, waits)
		}
	}
}

// TestFailedGatherSurfacesFromBackward fails the k-th collective of a
// step's gathers, for every k, on the benchmark layout and on the deep
// one. Backward must return the failure wrapped with the group's
// buckets, having waited out every gather that was launched and dropped
// what they fetched: every bucket sharded, only the shards resident,
// nothing in flight. Where the plan launches a later group before the
// failed one is waited for — on the benchmark layout, bucket 1's gather
// launched beside u0's [3 2] and bucket 0's launched by u1, which reads
// bucket 1 — that gather is in flight when the failure lands, and it is
// waited out and dropped too; nothing launches after the failure. A
// group first read in backward surfaces from backward's wait.
func TestFailedGatherSurfacesFromBackward(t *testing.T) {
	boom := fmt.Errorf("peer vanished")
	for _, fx := range []fixture{bertFixture, deepFixture} {
		t.Run(fx.name, func(t *testing.T) {
			overlapped := 0 // the k with a later gather in flight
			groups := newScripted(t, fx, 0, 2).f.plan.Gathers
			for k, failing := range groups {
				// The gathers launched by the time failing is waited for.
				launched := 0
				for _, g := range groups {
					if g.Submit <= failing.Wait {
						launched++
					}
				}
				s := newScripted(t, fx, 0, 2)
				f := s.f
				if _, err := s.step(); err != nil {
					t.Fatal(err)
				}
				first := len(s.g.waited)
				s.g.release = func(n int, _ []int) error {
					if n != first+k {
						return nil
					}
					if inFlight := len(s.g.waited) - n - 1; inFlight != launched-k-1 {
						t.Errorf("k=%d: collective %d of the step failed with %d later ones in flight, want %d", k, k, inFlight, launched-k-1)
					}
					return boom
				}
				if launched > k+1 {
					overlapped++
				}
				_, err := s.step()
				buckets := fmt.Sprint(failing.Buckets)
				if err == nil || !errors.Is(err, boom) || !strings.Contains(err.Error(), "buckets "+buckets+" ") {
					t.Fatalf("k=%d: Backward returned %v, want the failure of buckets %s", k, err, buckets)
				}
				if want := map[bool]string{true: "fsdp: forward:", false: "fsdp: backward:"}[failing.Wait < len(f.units)]; !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("k=%d: error %q does not say %q", k, err, want)
				}
				if got := len(s.g.waited) - first; got != launched {
					t.Fatalf("k=%d: the failed step launched %d collectives, want the %d launched by the failure and none after", k, got, launched)
				}
				for n, waits := range s.g.waited {
					if waits != 1 {
						t.Fatalf("k=%d: gather %d was waited for %d times, want exactly once", k, n, waits)
					}
				}
				for b, st := range f.state {
					if st != sharded {
						t.Fatalf("k=%d: bucket %d stands at %v after the failed step, want sharded", k, b, st)
					}
				}
				if got, want := f.residentParam, f.Stats().ShardParamBytes; got != want || len(f.inflight) != 0 {
					t.Fatalf("k=%d: %d bytes resident and %d gathers in flight after the failed step, want %d and none", k, got, len(f.inflight), want)
				}
				// The wrapper is usable again: the next step gathers everything anew.
				s.g.release = nil
				before, collectives := f.Stats().Gathers, len(s.g.waited)
				if _, err := s.step(); err != nil {
					t.Fatalf("k=%d: step after the failure: %v", k, err)
				}
				if got, n, want := f.Stats().Gathers-before, len(s.g.waited)-collectives, groups.Buckets(reduce.AllGatherV); got != want || n != len(groups) {
					t.Fatalf("k=%d: step after the failure gathered %d buckets in %d collectives, want %d in %d", k, got, n, want, len(groups))
				}
			}
			if overlapped == 0 {
				t.Fatalf("no collective of the %s layout fails with a later one in flight", fx.name)
			}
		})
	}
}

// bnMLP is an MLP with BatchNorm buffers, which the wrapper
// re-broadcasts from rank 0 ahead of the forward that follows a
// synchronized backward.
func bnMLP() nn.Module {
	rng := rand.New(rand.NewSource(3))
	return nn.NewSequential(
		nn.NewLinear(rng, "fc1", tIn, tHidden),
		nn.NewBatchNorm("bn", tHidden),
		nn.Tanh{},
		nn.NewLinear(rng, "fc2", tHidden, tOut),
	)
}

// TestBufferBroadcastFailureIsAnError: a peer that dies between a
// synchronized backward and the next forward must not take this process
// down with it — the failed buffer broadcast comes back from Backward
// as an error the elastic agent can roll back from.
func TestBufferBroadcastFailureIsAnError(t *testing.T) {
	const world = 2
	fx := fixture{"bn", bnMLP, tCap, tIn, tOut}
	batches, labels := fx.makeData(world, 2)
	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		groups := inProcGroups(t, world)
		wrappers := make([]*FSDP, world)
		runRanks(t, world, func(rank int) error {
			f, err := New(fx.build(), groups[rank], Options{Strategy: strategy, BucketCapBytes: fx.cap, LR: tLR, Momentum: tMomentum})
			if err != nil {
				return err
			}
			wrappers[rank] = f
			return fsdpTrainRank(f, rank, batches[:1], labels[:1])
		})
		for _, g := range groups {
			if err := comm.AbortGroup(g); err != nil {
				t.Fatal(err)
			}
		}
		runRanks(t, world, func(rank int) error {
			err := fsdpTrainRank(wrappers[rank], rank, batches[1:], labels[1:])
			if err == nil || !strings.Contains(err.Error(), "broadcasting buffers") {
				return fmt.Errorf("%v: step on an aborted group returned %v, want the buffer broadcast's failure", strategy, err)
			}
			if got := len(wrappers[rank].inflight); got != 0 {
				return fmt.Errorf("%v: %d gathers in flight after the failed step", strategy, got)
			}
			return nil
		})
	}
}

// detach cuts the autograd graph: what comes before it gets no gradient.
type detach struct{ nn.Tanh }

func (detach) Forward(x *autograd.Variable) *autograd.Variable { return autograd.Constant(x.Value) }

// TestIncompleteBackwardLeavesNoGatherInFlight: when part of the model
// is cut off from the loss, its backward hook never fires, so the gather
// launched ahead for it is never waited for by a unit. Backward reports
// the parameters that got no gradient — and must first wait that gather
// out and drop what it fetched.
func TestIncompleteBackwardLeavesNoGatherInFlight(t *testing.T) {
	fx := fixture{"cut", func() nn.Module {
		rng := rand.New(rand.NewSource(3))
		return nn.NewSequential(nn.NewLinear(rng, "fc1", tIn, tHidden), detach{}, nn.NewLinear(rng, "fc2", tHidden, tHidden), nn.NewLinear(rng, "fc3", tHidden, tOut))
	}, -1, tIn, tOut}
	s := newScripted(t, fx, 0, 2)
	// The precondition: making room for fc3's buckets drops fc1's weight
	// (bucket 5) after forward u0, and fc2's backward launches it again
	// ahead of fc1's, which never runs.
	p, fc2 := s.f.plan, 2*len(s.f.units)-1-2
	if last := p.Gathers[len(p.Gathers)-1]; planSeq(s.f) != "[5 4 3 2 1 0 5]" || last.Submit > fc2 || last.Wait <= fc2 {
		t.Fatalf("plan %v, want [5 4 3 2 1 0 5] with bucket 5's second gather launched by fc2's backward for fc1's", p.Gathers)
	}
	events, err := s.step()
	if err == nil || !strings.Contains(err.Error(), "incomplete") || !strings.Contains(err.Error(), "fc1") {
		t.Fatalf("Backward returned %v, want the incomplete-bucket error naming fc1's parameters", err)
	}
	if got, want := launchesIn(events), sortedGroups(s.f); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("launched %v, want the whole plan's groups %v", got, want)
	}
	for n, waits := range s.g.waited {
		if waits != 1 {
			t.Fatalf("gather %d was waited for %d times, want exactly once", n, waits)
		}
	}
	if got, want := s.f.residentParam, s.f.Stats().ShardParamBytes; got != want || len(s.f.inflight) != 0 {
		t.Fatalf("%d bytes resident and %d gathers in flight after the failed step, want %d and none", got, len(s.f.inflight), want)
	}
}
