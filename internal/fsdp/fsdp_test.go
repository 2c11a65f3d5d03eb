package fsdp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/tensor"
)

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
func makeData(world, iters int) (batches, labels []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(42))
	batches = make([]*tensor.Tensor, iters)
	labels = make([]*tensor.Tensor, iters)
	for i := range batches {
		batches[i] = tensor.RandN(rng, 1, world*tPerRank, tIn)
		labels[i] = tensor.RandN(rng, 1, world*tPerRank, tOut)
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
func ddpReference(t *testing.T, world int, batches, labels []*tensor.Tensor) []*tensor.Tensor {
	t.Helper()
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]nn.Module, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(3, tIn, tHidden, tOut)
		var opt *optim.SGD
		return ddpTrainRank(models[rank], groups[rank], rank, batches, labels, &opt)
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
func ddpTrainRank(model nn.Module, pg comm.ProcessGroup, rank int, batches, labels []*tensor.Tensor, opt **optim.SGD) error {
	d, err := ddp.New(model, pg, ddp.Options{BucketCapBytes: tCap})
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

func trainFSDP(t *testing.T, world int, strategy Strategy, batches, labels []*tensor.Tensor) []*FSDP {
	t.Helper()
	groups := comm.NewInProcGroups(world, comm.Options{})
	wrappers := make([]*FSDP, world)
	runRanks(t, world, func(rank int) error {
		model := buildMLP(3, tIn, tHidden, tOut)
		f, err := New(model, groups[rank], Options{
			Strategy:       strategy,
			BucketCapBytes: tCap,
			LR:             tLR,
			Momentum:       tMomentum,
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

// TestAgreementWithDDPBitwise is the tentpole acceptance check: over a
// Ring process group, ZeRO-2 and ZeRO-3 must walk the exact parameter
// trajectory of DDP + momentum SGD — bitwise — for every world size 1
// through 8, including non-powers-of-two and the empty-chunk tails.
func TestAgreementWithDDPBitwise(t *testing.T) {
	for world := 1; world <= 8; world++ {
		world := world
		t.Run(worldName(world), func(t *testing.T) {
			t.Parallel()
			batches, labels := makeData(world, tIters)
			ref := ddpReference(t, world, batches, labels)
			for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
				wrappers := trainFSDP(t, world, strategy, batches, labels)
				for rank, f := range wrappers {
					for i, p := range f.Parameters() {
						if !p.Value.Equal(ref[i]) {
							t.Fatalf("%v world %d rank %d param %d differs from DDP reference (max diff %v)",
								strategy, world, rank, i, p.Value.MaxAbsDiff(ref[i]))
						}
					}
				}
			}
		})
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
	batches, labels := makeData(world, 3)
	ref := ddpReference(t, world, batches[:3], labels[:3])

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
	groups := comm.NewInProcGroups(world, comm.Options{})
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
	groups := comm.NewInProcGroups(world, comm.Options{})
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
	batches, labels := makeData(world, tIters)

	// Reference SGD state from the DDP run.
	groups := comm.NewInProcGroups(world, comm.Options{})
	var refState []float32
	models := make([]nn.Module, world)
	opts := make([]*optim.SGD, world)
	runRanks(t, world, func(rank int) error {
		models[rank] = buildMLP(3, tIn, tHidden, tOut)
		return ddpTrainRank(models[rank], groups[rank], rank, batches, labels, &opts[rank])
	})
	refState = opts[0].FlatState()

	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		wrappers := trainFSDP(t, world, strategy, batches, labels)
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
// bitwise identical to each other and residual state must be tracked.
func TestCompressedShardedReduceSelfConsistent(t *testing.T) {
	const world = 4
	for _, strategy := range []Strategy{ZeRO2, ZeRO3} {
		batches, labels := makeData(world, 3)
		groups := comm.NewInProcGroups(world, comm.Options{})
		wrappers := make([]*FSDP, world)
		runRanks(t, world, func(rank int) error {
			f, err := New(buildMLP(3, tIn, tHidden, tOut), groups[rank], Options{
				Strategy:       strategy,
				BucketCapBytes: tCap,
				LR:             tLR,
				Momentum:       tMomentum,
				NewCodec:       func() comm.Codec { return comm.Float16Codec{} },
			})
			if err != nil {
				return err
			}
			wrappers[rank] = f
			return fsdpTrainRank(f, rank, batches, labels)
		})
		runRanks(t, world, func(rank int) error { return wrappers[rank].Materialize() })
		ref := wrappers[0].Parameters()
		for rank := 1; rank < world; rank++ {
			for i, p := range wrappers[rank].Parameters() {
				if !p.Value.Equal(ref[i].Value) {
					t.Fatalf("%v compressed rank %d param %d differs from rank 0", strategy, rank, i)
				}
			}
		}
		if got := wrappers[0].Stats().ResidualBytes; got == 0 {
			t.Fatalf("%v compressed run reports zero residual bytes", strategy)
		}
		runRanks(t, world, func(rank int) error {
			st, err := wrappers[rank].CaptureState()
			if err == nil && len(st.Residuals) == 0 {
				err = fmt.Errorf("%v compressed run has empty residual state", strategy)
			}
			return err
		})
	}
}

// TestRejectsPlainCodec: quantizing the full bucket before a sharded
// reduce would misaccount bytes; only wire codecs are accepted.
func TestRejectsPlainCodec(t *testing.T) {
	groups := comm.NewInProcGroups(1, comm.Options{})
	_, err := New(buildMLP(3, tIn, tHidden, tOut), groups[0], Options{
		NewCodec: func() comm.Codec { return plainCodec{} },
	})
	if err == nil {
		t.Fatal("plain (non-wire) codec accepted")
	}
}

type plainCodec struct{}

func (plainCodec) Name() string              { return "plain" }
func (plainCodec) Quantize([]float32)        {}
func (plainCodec) CompressionRatio() float64 { return 1 }

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
