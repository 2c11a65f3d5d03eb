package simnet

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/models"
)

func resnetCfg() Config {
	return Config{
		ParamSizes: models.ResNet50().Sizes(),
		World:      32,
		Backend:    hw.NCCLLike,
		Device:     hw.GPU,
		Overlap:    true,
	}
}

func TestSimulateIterationBasics(t *testing.T) {
	b, err := SimulateIteration(resnetCfg())
	if err != nil {
		t.Fatal(err)
	}
	if b.TotalSeconds <= 0 || b.ForwardSeconds <= 0 || b.BackwardComputeSeconds <= 0 {
		t.Fatalf("non-positive segments: %+v", b)
	}
	if b.TotalSeconds < b.ForwardSeconds+b.BackwardComputeSeconds+b.OptimizerSeconds {
		t.Fatal("total must cover compute segments")
	}
	if b.Buckets < 2 {
		t.Fatalf("ResNet50 at 25MB should have several buckets, got %d", b.Buckets)
	}
}

func TestEmptyModelRejected(t *testing.T) {
	if _, err := SimulateIteration(Config{World: 2}); err == nil {
		t.Fatal("expected error for empty model")
	}
}

func TestOverlapReducesLatency(t *testing.T) {
	// The headline claim of Section 3.2.3: overlapping communication
	// with the backward pass shortens iterations.
	cfg := resnetCfg()
	withOverlap, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Overlap = false
	without, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withOverlap.TotalSeconds >= without.TotalSeconds {
		t.Fatalf("overlap (%v) not faster than barrier (%v)",
			withOverlap.TotalSeconds, without.TotalSeconds)
	}
	speedup := 1 - withOverlap.TotalSeconds/without.TotalSeconds
	// Paper Fig 6: ResNet50 on NCCL gains ~38% from overlap. Accept a
	// generous band; `ddpbench -exp fig6` prints the exact figure (see
	// ARCHITECTURE.md, "Substitutions and the experiment index").
	if speedup < 0.10 || speedup > 0.60 {
		t.Fatalf("overlap speedup = %.1f%%, outside plausible band", speedup*100)
	}
}

func TestSingleGPUHasNoCommunication(t *testing.T) {
	cfg := resnetCfg()
	cfg.World = 1
	b, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.CommSeconds != 0 || b.ExposedCommSeconds != 0 {
		t.Fatalf("single GPU should not communicate: %+v", b)
	}
}

func TestLatencyGrowsWithWorld(t *testing.T) {
	// Fig 9: scaling out slows individual iterations.
	cfg := resnetCfg()
	prev := 0.0
	for _, w := range []int{1, 8, 32, 128} {
		cfg.World = w
		b, err := SimulateIteration(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if b.TotalSeconds < prev {
			t.Fatalf("latency decreased from %v to %v at world %d", prev, b.TotalSeconds, w)
		}
		prev = b.TotalSeconds
	}
}

func TestBucketSizeSweetSpot(t *testing.T) {
	// Figs 7/8: both extremes lose; some middle bucket size wins. The
	// "0MB" (per-parameter) configuration must be distinctly worse than
	// the best middle size for ResNet50 on NCCL at 16 GPUs.
	sizes := models.ResNet50().Sizes()
	latency := func(capMB int) float64 {
		capBytes := capMB << 20
		if capMB == 0 {
			capBytes = -1
		}
		b, err := SimulateIteration(Config{
			ParamSizes:     sizes,
			BucketCapBytes: capBytes,
			World:          16,
			Backend:        hw.NCCLLike,
			Device:         hw.GPU,
			Overlap:        true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.TotalSeconds
	}
	zero := latency(0)
	best := zero
	for _, mb := range []int{5, 10, 25, 50} {
		if l := latency(mb); l < best {
			best = l
		}
	}
	if best >= zero {
		t.Fatalf("no bucket size beat per-parameter reduction: best %v vs 0MB %v", best, zero)
	}
	// One giant bucket forfeits overlap: worse than the best.
	giant := latency(200)
	if giant <= best {
		t.Fatalf("single giant bucket (%v) should lose to bucketing (%v)", giant, best)
	}
}

func TestGlooPrefersSmallerBucketsThanNCCL(t *testing.T) {
	// Fig 7(b): with Gloo, 5MB beats 25MB for ResNet50 because Gloo's
	// bandwidth saturates at small tensors and larger buckets only delay
	// the first launch.
	sizes := models.ResNet50().Sizes()
	lat := func(backend hw.Backend, capMB int) float64 {
		b, err := SimulateIteration(Config{
			ParamSizes:     sizes,
			BucketCapBytes: capMB << 20,
			World:          16,
			Backend:        backend,
			Device:         hw.GPU,
			Overlap:        true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.TotalSeconds
	}
	if lat(hw.GlooLike, 5) >= lat(hw.GlooLike, 50) {
		t.Fatalf("Gloo 5MB (%v) should beat 50MB (%v)", lat(hw.GlooLike, 5), lat(hw.GlooLike, 50))
	}
}

func TestNoSyncAmortizesCommunication(t *testing.T) {
	// Fig 10: syncing every 8 iterations must cut mean latency
	// substantially at large world sizes.
	cfg := resnetCfg()
	cfg.World = 256
	every1, err := MeanLatency(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SyncEveryN = 8
	every8, err := MeanLatency(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	if every8 >= every1 {
		t.Fatalf("no_sync_8 (%v) not faster than sync every iteration (%v)", every8, every1)
	}
	saving := 1 - every8/every1
	if saving < 0.10 {
		t.Fatalf("no_sync_8 saving only %.1f%%", saving*100)
	}
}

func TestRoundRobinStreamsHelpBERT(t *testing.T) {
	// Fig 12: BERT on NCCL benefits most from rr3 (one group cannot
	// saturate the link while buckets queue up behind each other).
	bert := models.BERTLarge()
	lat := func(streams int) float64 {
		b, err := SimulateIteration(Config{
			ParamSizes:       bert.Sizes(),
			ComputeIntensity: bert.ComputeIntensity,
			World:            16,
			Backend:          hw.NCCLLike,
			Device:           hw.GPU,
			Overlap:          true,
			CommStreams:      streams,
			BucketCapBytes:   25 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b.TotalSeconds
	}
	rr1, rr3 := lat(1), lat(3)
	if rr3 >= rr1 {
		t.Fatalf("rr3 (%v) should beat rr1 (%v) for BERT", rr3, rr1)
	}
}

func TestCompressionReducesCommTime(t *testing.T) {
	cfg := resnetCfg()
	cfg.World = 64
	plain, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompressionRatio = 32
	compressed, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if compressed.CommSeconds >= plain.CommSeconds {
		t.Fatal("compression must reduce communication time")
	}
}

func TestJitterProducesSpreadAndSpikes(t *testing.T) {
	cfg := resnetCfg()
	cfg.Jitter = true
	cfg.Seed = 3
	lat, err := Run(cfg, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != 250 {
		t.Fatalf("got %d samples", len(lat))
	}
	// Iteration 100 and 200 must be outliers (re-construction spikes).
	base := lat[50]
	if lat[100] < 1.2*base || lat[200] < 1.2*base {
		t.Fatalf("no spike at 100-iteration boundary: %v vs base %v", lat[100], base)
	}
	// Determinism: same seed, same trace.
	lat2, _ := Run(cfg, 250)
	for i := range lat {
		if lat[i] != lat2[i] {
			t.Fatal("jitter must be deterministic per seed")
		}
	}
}

func TestRunWithoutJitterIsConstantOffBoundary(t *testing.T) {
	cfg := resnetCfg()
	lat, err := Run(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if lat[i] != lat[0] {
			t.Fatal("deterministic run must be constant")
		}
	}
}

func TestTimelineInvariants(t *testing.T) {
	// The simulated schedule must honour Algorithm 1's constraints:
	// buckets ready monotonically (reverse-order assumption), no op
	// starts before its bucket is ready, ops on the same stream never
	// overlap, and the in-order launch rule holds (start times are
	// non-decreasing in bucket index).
	for _, streams := range []int{1, 3} {
		cfg := resnetCfg()
		cfg.CommStreams = streams
		_, events, err := SimulateIterationTimeline(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) < 2 {
			t.Fatal("expected multiple buckets")
		}
		streamEnd := map[int]float64{}
		for i, e := range events {
			if e.StartSeconds < e.ReadySeconds {
				t.Fatalf("bucket %d started before ready", e.Bucket)
			}
			if e.EndSeconds <= e.StartSeconds {
				t.Fatalf("bucket %d has non-positive duration", e.Bucket)
			}
			if e.StartSeconds < streamEnd[e.Stream] {
				t.Fatalf("bucket %d overlaps previous op on stream %d", e.Bucket, e.Stream)
			}
			streamEnd[e.Stream] = e.EndSeconds
			if i > 0 {
				if e.ReadySeconds < events[i-1].ReadySeconds {
					t.Fatalf("bucket %d ready before bucket %d", e.Bucket, events[i-1].Bucket)
				}
				if e.StartSeconds < events[i-1].StartSeconds {
					t.Fatalf("bucket %d launched before bucket %d (Fig 3(a) violation)", e.Bucket, events[i-1].Bucket)
				}
			}
			if e.Stream != e.Bucket%streams {
				t.Fatalf("bucket %d on stream %d, want round-robin", e.Bucket, e.Stream)
			}
		}
	}
}

func TestTimelineCompressionShrinksBytes(t *testing.T) {
	cfg := resnetCfg()
	_, plain, err := SimulateIterationTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.CompressionRatio = 2
	_, compressed, err := SimulateIterationTimeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if compressed[i].Bytes*2 != plain[i].Bytes {
			t.Fatalf("bucket %d: %d compressed vs %d plain", i, compressed[i].Bytes, plain[i].Bytes)
		}
	}
}

func TestHierarchicalCostModelReducesCommTime(t *testing.T) {
	cfg := resnetCfg() // 32 GPUs: 4 servers on the default cluster
	flat, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hierarchical = true
	hier, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hier.CommSeconds >= flat.CommSeconds {
		t.Fatalf("hierarchical comm busy time (%v) not below flat (%v)", hier.CommSeconds, flat.CommSeconds)
	}
	if hier.TotalSeconds > flat.TotalSeconds {
		t.Fatalf("hierarchical iteration (%v) slower than flat (%v)", hier.TotalSeconds, flat.TotalSeconds)
	}
	// Within one server the two models are the same function.
	cfg.World = 8
	hier8, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Hierarchical = false
	flat8, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hier8.TotalSeconds != flat8.TotalSeconds {
		t.Fatalf("single-server mismatch: %v vs %v", hier8.TotalSeconds, flat8.TotalSeconds)
	}
}

func TestShardedStrategiesChangeCostShape(t *testing.T) {
	ddp, err := SimulateIteration(resnetCfg())
	if err != nil {
		t.Fatal(err)
	}
	z2cfg := resnetCfg()
	z2cfg.Strategy = "zero2"
	z2, err := SimulateIteration(z2cfg)
	if err != nil {
		t.Fatal(err)
	}
	z3cfg := resnetCfg()
	z3cfg.Strategy = "zero3"
	z3, err := SimulateIteration(z3cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Sharding trades communication for memory. ZeRO-2 moves DDP's
	// bytes (ReduceScatter + AllGather is the ring AllReduce) but its
	// parameter AllGather waits for the optimizer, so all of it is
	// exposed traffic DDP never pays. ZeRO-3 moves half as much again —
	// every bucket but the kept one is gathered twice — yet gathers one
	// bucket ahead of compute, so only the first forward gather and the
	// longer backward tail are exposed: the most traffic of the three,
	// and a step below ZeRO-2's. (Against DDP it comes down to that
	// exposure versus the sharded optimizer's saving, which no ordering
	// pins; the measured zero3_bert_shaped row lands on ddp_bert_shaped.)
	if !(ddp.TotalSeconds < z2.TotalSeconds && z3.TotalSeconds < z2.TotalSeconds) {
		t.Fatalf("latency order ddp, zero3 < zero2 violated: %v, %v, %v",
			ddp.TotalSeconds, z2.TotalSeconds, z3.TotalSeconds)
	}
	if !(z2.CommSeconds == ddp.CommSeconds && z3.CommSeconds > 1.3*z2.CommSeconds) {
		t.Fatalf("traffic order ddp = zero2 < zero3 violated: %v, %v, %v",
			ddp.CommSeconds, z2.CommSeconds, z3.CommSeconds)
	}
	if !(ddp.ExposedCommSeconds < z3.ExposedCommSeconds && z3.ExposedCommSeconds < z2.ExposedCommSeconds) {
		t.Fatalf("exposed comm order ddp < zero3 < zero2 violated: %v, %v, %v",
			ddp.ExposedCommSeconds, z3.ExposedCommSeconds, z2.ExposedCommSeconds)
	}
	// The sharded optimizer touches only the owned 1/world of the state.
	if z2.OptimizerSeconds >= ddp.OptimizerSeconds {
		t.Fatalf("sharded optimizer (%v) not cheaper than replicated (%v)",
			z2.OptimizerSeconds, ddp.OptimizerSeconds)
	}
	// "ddp" is an alias for the replicated default.
	alias := resnetCfg()
	alias.Strategy = "ddp"
	ab, err := SimulateIteration(alias)
	if err != nil {
		t.Fatal(err)
	}
	if ab.TotalSeconds != ddp.TotalSeconds {
		t.Fatalf("strategy \"ddp\" (%v) differs from default (%v)", ab.TotalSeconds, ddp.TotalSeconds)
	}
}

func TestShardedSingleGPUHasNoCommunication(t *testing.T) {
	cfg := resnetCfg()
	cfg.World = 1
	cfg.Strategy = "zero3"
	b, err := SimulateIteration(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.CommSeconds != 0 || b.ExposedCommSeconds != 0 {
		t.Fatalf("single-rank sharded run should not communicate: %+v", b)
	}
}
