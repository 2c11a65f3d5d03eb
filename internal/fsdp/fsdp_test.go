package fsdp

import (
	"errors"
	"fmt"
	"math/rand"
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
	// 128-element tail, so each unit waits for two gathers and every
	// bucket but one is freed and re-gathered mid-pass.
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
		srv, err := store.ServeTCP("127.0.0.1:0", 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		wrappers := make([]*FSDP, world)
		groups := make([]comm.ProcessGroup, world)
		runRanks(t, world, func(rank int) error {
			client, err := store.DialTCP(srv.Addr())
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

// TestZeRO2StatsReplicateParams pins the ZeRO-2 accounting: parameters
// fully resident, optimizer state sharded.
func TestZeRO2StatsReplicateParams(t *testing.T) {
	const world = 4
	groups := inProcGroups(t, world)
	wrappers := make([]*FSDP, world)
	runRanks(t, world, func(rank int) error {
		f, err := New(buildMLP(11, tIn, tHidden, tOut), groups[rank], Options{
			Strategy: ZeRO2, BucketCapBytes: tCap, LR: tLR,
		})
		wrappers[rank] = f
		return err
	})
	for rank, f := range wrappers {
		s := f.Stats()
		if s.ShardParamBytes != s.FullParamBytes || s.PeakParamBytes != s.FullParamBytes {
			t.Fatalf("rank %d ZeRO-2 must keep params replicated: %+v", rank, s)
		}
		slack := 4 * world * f.NumBuckets()
		if s.OptimizerBytes > s.FullParamBytes/world+slack {
			t.Fatalf("rank %d ZeRO-2 optimizer bytes %d not ~1/world of %d", rank, s.OptimizerBytes, s.FullParamBytes)
		}
	}
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

func TestParseStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Strategy
	}{{"zero2", ZeRO2}, {"ZeRO3", ZeRO3}} {
		got, err := ParseStrategy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseStrategy("ddp"); err == nil {
		t.Fatal("ParseStrategy accepted ddp")
	}
	if ZeRO2.String() != "zero2" || ZeRO3.String() != "zero3" {
		t.Fatal("Strategy.String spelling changed")
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
// waits and landings go to an event log the schedule tests read back.
// Every other collective completes at once.
type scriptedGroup struct {
	rank, world int
	events      []string
	// release, when non-nil, decides how the n-th launched gather
	// (counting from 0) ends once somebody waits for it.
	release  func(n, bucket int) error
	bucketOf map[*float32]int // a flat's first element → its bucket
	waited   []int            // waits per launched gather
}

func (g *scriptedGroup) logf(format string, args ...any) {
	g.events = append(g.events, fmt.Sprintf(format, args...))
}

type scriptedGather struct {
	g         *scriptedGroup
	n, bucket int
}

func (w scriptedGather) Wait() error {
	w.g.waited[w.n]++
	w.g.logf("wait %d", w.bucket)
	var err error
	if w.g.release != nil {
		err = w.g.release(w.n, w.bucket)
	}
	w.g.logf("landed %d", w.bucket)
	return err
}

func (g *scriptedGroup) Rank() int { return g.rank }
func (g *scriptedGroup) Size() int { return g.world }

func (g *scriptedGroup) AllGatherV(data []float32) comm.Work {
	b, ok := g.bucketOf[&data[0]]
	if !ok {
		return comm.CompletedWork(nil) // CaptureState's momentum gathers
	}
	g.logf("launch %d", b)
	g.waited = append(g.waited, 0)
	return scriptedGather{g: g, n: len(g.waited) - 1, bucket: b}
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

var _ comm.ShardedGroup = (*scriptedGroup)(nil)

// loggedUnit logs when the wrapped unit's forward runs and when its
// backward is about to (a hook on its own output, which fires after the
// wrapper's hook on the same value and before the unit's gradient math),
// together with the parameter bytes resident at that moment.
type loggedUnit struct {
	nn.Module
	u    int
	g    *scriptedGroup
	f    **FSDP
	seen map[string]int // event → resident parameter bytes when it was logged
}

func (l loggedUnit) note(event string) {
	l.g.logf("%s %d", event, l.u)
	if *l.f != nil { // nil while the constructor runs
		l.seen[fmt.Sprintf("%s %d", event, l.u)] = (*l.f).residentParam
	}
}

func (l loggedUnit) Forward(x *autograd.Variable) *autograd.Variable {
	l.note("forward")
	return autograd.BackwardHook(l.Module.Forward(x), func() { l.note("backward") })
}

// scripted is one rank's ZeRO-3 wrapper over a scriptedGroup.
type scripted struct {
	f    *FSDP
	g    *scriptedGroup
	seen map[string]int
	x, y *autograd.Variable
}

// newScripted wraps the fixture's model, unit by unit in loggedUnits,
// for rank of world.
func newScripted(t *testing.T, fx fixture, rank, world int) *scripted {
	t.Helper()
	s := &scripted{g: &scriptedGroup{rank: rank, world: world, bucketOf: map[*float32]int{}}, seen: map[string]int{}}
	seq := nn.NewSequential()
	for u, unit := range fx.build().(*nn.Sequential).Children() {
		seq.Append(loggedUnit{Module: unit, u: u, g: s.g, f: &s.f, seen: s.seen})
	}
	f, err := New(seq, s.g, Options{Strategy: ZeRO3, BucketCapBytes: fx.cap, LR: tLR, Momentum: tMomentum})
	if err != nil {
		t.Fatal(err)
	}
	s.f = f
	for b, flat := range f.flats {
		s.g.bucketOf[&flat[0]] = b
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

func indexOf(t *testing.T, events []string, event string) int {
	t.Helper()
	for i, e := range events {
		if e == event {
			return i
		}
	}
	t.Fatalf("event %q missing from %v", event, events)
	return -1
}

func launchesIn(events []string) []int {
	var out []int
	for _, e := range events {
		var b int
		if n, _ := fmt.Sscanf(e, "launch %d", &b); n == 1 {
			out = append(out, b)
		}
	}
	return out
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

// TestGatherPlanOfTheBenchmarkLayout pins the schedule mapUnits emits
// for the benchmark's model: four buckets in reverse registration
// order, every block reading its own bucket and, by its last bias, the
// next block's.
func TestGatherPlanOfTheBenchmarkLayout(t *testing.T) {
	f := newScripted(t, bertFixture, 0, 2).f
	want := func(name string, got, want []int) {
		t.Helper()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s = %v, want %v", name, got, want)
		}
	}
	want("forward sequence", f.fwd.seq, []int{3, 2, 1, 0})
	want("forward need", f.fwd.need, []int{2, 3, 4, 4, 4})
	want("backward sequence", f.bwd.seq, []int{0, 1, 2, 3})
	want("backward need", f.bwd.need, []int{4, 3, 2, 1, 1})
	if fmt.Sprint(f.kept) != "[true false false false]" {
		t.Fatalf("kept = %v, want only bucket 0 (the last unit's)", f.kept)
	}
}

// TestGatherSchedule drives whole steps over the scripted group and
// pins what the plan promises: launches are the plan, on every rank;
// each gather is launched before the wait on the one ahead of it
// returns and before any unit that reads it runs; at no point is more
// than one bucket resident or in flight that the running unit does not
// read; and the gather count is 2·NB less the kept buckets.
func TestGatherSchedule(t *testing.T) {
	for _, fx := range []fixture{deepFixture, bertFixture} {
		t.Run(fx.name, func(t *testing.T) {
			const world = 3
			var rank0 []string
			for rank := 0; rank < world; rank++ {
				s := newScripted(t, fx, rank, world)
				f := s.f
				nb := f.NumBuckets()
				if _, err := s.step(); err != nil { // first step: parameters start sharded, same as any other
					t.Fatal(err)
				}
				before := f.Stats().Gathers
				events, err := s.step()
				if err != nil {
					t.Fatal(err)
				}

				// (a) The launch log is the plan: the forward sequence,
				// then the backward sequence without the kept buckets.
				var plan []int
				plan = append(plan, f.fwd.seq...)
				kept := 0
				for _, b := range f.bwd.seq {
					if f.kept[b] {
						kept++
						continue
					}
					plan = append(plan, b)
				}
				if got := launchesIn(events); fmt.Sprint(got) != fmt.Sprint(plan) {
					t.Fatalf("rank %d launched %v, the plan is %v", rank, got, plan)
				}
				if rank == 0 {
					rank0 = append([]string(nil), events...)
				} else if fmt.Sprint(events) != fmt.Sprint(rank0) {
					t.Fatalf("rank %d's step differs from rank 0's:\n%v\n%v", rank, events, rank0)
				}

				// (d) 2·NB gathers less the kept buckets.
				if got, want := f.Stats().Gathers-before, 2*nb-kept; got != want || kept != len(f.unitBuckets[f.lastUnitWithBuckets()]) {
					t.Fatalf("rank %d: %d gathers in a step, want 2·%d − %d", rank, got, nb, kept)
				}

				// (b) Within each pass, the gather at position i+1 is
				// launched before the wait on position i returns, and
				// every gather a unit reads has landed — and the one
				// after it has been launched — before the unit runs.
				split := indexOf(t, events, fmt.Sprintf("forward %d", len(f.units)-1)) + 1
				for _, pass := range []struct {
					name   string
					p      *gatherPlan
					events []string
				}{{"forward", &f.fwd, events[:split]}, {"backward", &f.bwd, events[split:]}} {
					var seq []int // the pass's launches
					for _, b := range pass.p.seq {
						if pass.name == "forward" || !f.kept[b] {
							seq = append(seq, b)
						}
					}
					for i := 0; i+1 < len(seq); i++ {
						if indexOf(t, pass.events, fmt.Sprintf("launch %d", seq[i+1])) > indexOf(t, pass.events, fmt.Sprintf("landed %d", seq[i])) {
							t.Fatalf("rank %d %s: gather of bucket %d launched only after the wait on bucket %d returned: %v",
								rank, pass.name, seq[i+1], seq[i], pass.events)
						}
					}
					for u, buckets := range f.unitBuckets {
						if len(buckets) == 0 {
							continue
						}
						ran := indexOf(t, pass.events, fmt.Sprintf("%s %d", pass.name, u))
						for _, b := range buckets {
							if pass.name == "backward" && f.kept[b] {
								continue
							}
							if indexOf(t, pass.events, fmt.Sprintf("landed %d", b)) > ran {
								t.Fatalf("rank %d: unit %d's %s ran before bucket %d landed: %v", rank, u, pass.name, b, pass.events)
							}
						}
						if next := pass.p.need[u]; next < len(pass.p.seq) {
							if indexOf(t, pass.events, fmt.Sprintf("launch %d", pass.p.seq[next])) > ran {
								t.Fatalf("rank %d: unit %d's %s ran before the look-ahead gather of bucket %d was launched: %v",
									rank, u, pass.name, pass.p.seq[next], pass.events)
							}
						}
					}
				}

				// (c) Residency: the shards, the running unit's buckets
				// and one more.
				shards, oneMore := f.Stats().ShardParamBytes, 0
				for b := 0; b < nb; b++ {
					oneMore = max(oneMore, f.nonOwnedBytes(b))
				}
				worst := 0
				for u, buckets := range f.unitBuckets {
					bound := shards + oneMore
					for _, b := range buckets {
						bound += f.nonOwnedBytes(b)
					}
					worst = max(worst, bound)
					for _, pass := range []string{"forward", "backward"} {
						if got, ok := s.seen[fmt.Sprintf("%s %d", pass, u)]; ok && got > bound {
							t.Fatalf("rank %d: %d parameter bytes resident while unit %d's %s runs, bound %d", rank, got, u, pass, bound)
						}
					}
				}
				if got := f.Stats().PeakParamBytes; got > worst {
					t.Fatalf("rank %d: PeakParamBytes %d above shards + a unit's buckets + one = %d", rank, got, worst)
				}
				if got := f.residentParam; got != shards || len(f.inflight) != 0 {
					t.Fatalf("rank %d: %d bytes resident and %d gathers in flight after the step, want the %d shard bytes and none", rank, got, len(f.inflight), shards)
				}
			}
		})
	}
}

// lastUnitWithBuckets is the unit whose buckets forward keeps.
func (f *FSDP) lastUnitWithBuckets() int {
	for u := len(f.units) - 1; u >= 0; u-- {
		if len(f.unitBuckets[u]) > 0 {
			return u
		}
	}
	return 0
}

// TestEvaluationForwardKeepsWhatItHolds: a Forward that follows a
// Forward (evaluation, no Backward in between) finds the last unit's
// buckets still gathered and does not gather them again; neither does a
// Forward after Materialize gather anything.
func TestEvaluationForwardKeepsWhatItHolds(t *testing.T) {
	s := newScripted(t, bertFixture, 1, 2)
	f, nb := s.f, s.f.NumBuckets()
	f.Forward(s.x)
	if got := f.Stats().Gathers; got != nb {
		t.Fatalf("first forward launched %d gathers, want %d", got, nb)
	}
	f.Forward(s.x)
	if got, want := f.Stats().Gathers-nb, nb-1; got != want {
		t.Fatalf("second forward launched %d gathers, want %d: bucket 0 was kept", got, want)
	}
	if err := f.Materialize(); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().Gathers
	if got := f.residentParam; got != f.Stats().FullParamBytes {
		t.Fatalf("%d bytes resident after Materialize, want the full %d", got, f.Stats().FullParamBytes)
	}
	f.Forward(s.x)
	if got := f.Stats().Gathers - before; got != 0 {
		t.Fatalf("forward after Materialize launched %d gathers, want 0", got)
	}
	for n, waits := range s.g.waited {
		if waits != 1 {
			t.Fatalf("gather %d was waited for %d times, want once", n, waits)
		}
	}
}

// TestFailedGatherSurfacesFromBackward fails the k-th gather of a step
// while the one after it is in flight. Backward must return the failure
// wrapped with the bucket, having waited out every gather that was
// launched and dropped what they fetched.
func TestFailedGatherSurfacesFromBackward(t *testing.T) {
	boom := fmt.Errorf("peer vanished")
	for k := 0; k < 7; k++ { // 4 forward + 3 backward gathers a step
		s := newScripted(t, bertFixture, 0, 2)
		f := s.f
		if _, err := s.step(); err != nil {
			t.Fatal(err)
		}
		first := len(s.g.waited)
		failed := -1
		s.g.release = func(n, bucket int) error {
			if n != first+k {
				return nil
			}
			failed = bucket
			if k != 3 && k != 6 && len(s.g.waited) < n+2 { // a pass's last gather has none behind it
				t.Errorf("gather %d of the step failed with no later gather in flight", k)
			}
			return boom
		}
		_, err := s.step()
		if err == nil || !errors.Is(err, boom) || failed < 0 || !strings.Contains(err.Error(), fmt.Sprintf("bucket %d", failed)) {
			t.Fatalf("k=%d: Backward returned %v, want the failure of bucket %d", k, err, failed)
		}
		if want := map[bool]string{true: "fsdp: forward:", false: "fsdp: backward:"}[k < 4]; !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("k=%d: error %q does not say %q", k, err, want)
		}
		for n, waits := range s.g.waited {
			if waits != 1 {
				t.Fatalf("k=%d: gather %d was waited for %d times, want exactly once", k, n, waits)
			}
		}
		if got, want := f.residentParam, f.Stats().ShardParamBytes; got != want || len(f.inflight) != 0 {
			t.Fatalf("k=%d: %d bytes resident and %d gathers in flight after the failed step, want %d and none", k, got, len(f.inflight), want)
		}
		// The wrapper is usable again: the next step gathers everything anew.
		s.g.release = nil
		before := f.Stats().Gathers
		if _, err := s.step(); err != nil {
			t.Fatalf("k=%d: step after the failure: %v", k, err)
		}
		if got := f.Stats().Gathers - before; got != 7 {
			t.Fatalf("k=%d: step after the failure launched %d gathers, want 7", k, got)
		}
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
// is cut off from the loss, its backward hook never fires, so the
// look-ahead gather launched for it is never waited for by a unit.
// Backward reports the parameters that got no gradient — and must first
// wait that gather out and drop what it fetched.
func TestIncompleteBackwardLeavesNoGatherInFlight(t *testing.T) {
	fx := fixture{"cut", func() nn.Module {
		rng := rand.New(rand.NewSource(3))
		return nn.NewSequential(nn.NewLinear(rng, "fc1", tIn, tHidden), detach{}, nn.NewLinear(rng, "fc2", tHidden, tOut))
	}, -1, tIn, tOut}
	s := newScripted(t, fx, 0, 2)
	events, err := s.step()
	if err == nil || !strings.Contains(err.Error(), "incomplete") || !strings.Contains(err.Error(), "fc1") {
		t.Fatalf("Backward returned %v, want the incomplete-bucket error naming fc1's parameters", err)
	}
	// fc2's hook launched fc1's first bucket as its look-ahead.
	if got := launchesIn(events); fmt.Sprint(got) != "[3 2 1 0 3]" {
		t.Fatalf("launched %v, want the forward plan and one look-ahead gather of bucket 3", got)
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
