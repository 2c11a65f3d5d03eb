package hw

import (
	"math"
	"testing"

	"repro/internal/comm"
)

func TestAllReduceMonotoneInSize(t *testing.T) {
	c := DefaultCluster()
	for _, b := range []Backend{NCCLLike, GlooLike} {
		prev := 0.0
		for _, bytes := range []int{4 << 10, 4 << 14, 4 << 18, 4 << 22} {
			got := c.AllReduceSeconds(b, comm.Ring, bytes, 8)
			if got <= prev {
				t.Fatalf("%v: time not increasing with size", b)
			}
			prev = got
		}
	}
}

func TestAllReduceWorldOfOneFree(t *testing.T) {
	c := DefaultCluster()
	if c.AllReduceSeconds(NCCLLike, comm.Ring, 1<<20, 1) != 0 {
		t.Fatal("single rank needs no communication")
	}
	if c.BroadcastSeconds(GlooLike, 1<<20, 1) != 0 {
		t.Fatal("single rank broadcast is free")
	}
}

func TestNCCLFasterThanGloo(t *testing.T) {
	// Section 6.1: "NCCL is considerably faster than Gloo in most use
	// cases."
	c := DefaultCluster()
	for _, bytes := range []int{4 << 10, 4 << 20, 100 << 20} {
		for _, world := range []int{2, 8, 32} {
			n := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, world)
			g := c.AllReduceSeconds(GlooLike, comm.Ring, bytes, world)
			if n >= g {
				t.Fatalf("NCCL (%v) not faster than Gloo (%v) at %dB world %d", n, g, bytes, world)
			}
		}
	}
}

// Fig 2(a): total time to AllReduce 60M params decreases as per-op size
// grows, with no NCCL saturation through 20M params.
func TestFig2aShapeNCCLTotalTimeDecreases(t *testing.T) {
	c := DefaultCluster()
	const totalParams = 60e6
	prev := math.Inf(1)
	for _, perOp := range []int{1000, 10_000, 100_000, 1_000_000, 10_000_000, 20_000_000} {
		ops := int(totalParams) / perOp
		total := float64(ops) * c.AllReduceSeconds(NCCLLike, comm.Ring, perOp*4, 2)
		if total >= prev {
			t.Fatalf("NCCL total time should fall through 20M params/op: %v then %v at %d", prev, total, perOp)
		}
		prev = total
	}
}

// Fig 2(b): Gloo saturates around 500K params per op — beyond that the
// total stops improving meaningfully.
func TestFig2bShapeGlooSaturates(t *testing.T) {
	c := DefaultCluster()
	const totalParams = 60e6
	total := func(perOp int) float64 {
		ops := int(totalParams) / perOp
		return float64(ops) * c.AllReduceSeconds(GlooLike, comm.Ring, perOp*4, 2)
	}
	small := total(1000)
	at500K := total(500_000)
	at10M := total(10_000_000)
	if small < 5*at500K {
		t.Fatalf("tiny ops should be much slower: %v vs %v", small, at500K)
	}
	// Saturation: going 500K -> 10M changes total by < 20%.
	if math.Abs(at10M-at500K)/at500K > 0.2 {
		t.Fatalf("Gloo should be saturated past 500K: %v vs %v", at500K, at10M)
	}
}

// Fig 2(a) magnitudes: paper's y-axis spans ~1e-4..1e0 s for NCCL and
// ~1e-1..1e1 s for Gloo over 60M params.
func TestFig2Magnitudes(t *testing.T) {
	c := DefaultCluster()
	ncclSmall := 60_000 * c.AllReduceSeconds(NCCLLike, comm.Ring, 1000*4, 2)
	if ncclSmall < 0.3 || ncclSmall > 3 {
		t.Fatalf("NCCL 1K-param total = %v, want order 1e0", ncclSmall)
	}
	ncclBig := 3 * c.AllReduceSeconds(NCCLLike, comm.Ring, 20_000_000*4, 2)
	if ncclBig > 0.05 || ncclBig < 0.001 {
		t.Fatalf("NCCL 20M-param total = %v, want order 1e-2", ncclBig)
	}
	glooSmall := 60_000 * c.AllReduceSeconds(GlooLike, comm.Ring, 1000*4, 2)
	if glooSmall < 3 || glooSmall > 30 {
		t.Fatalf("Gloo 1K-param total = %v, want order 1e1", glooSmall)
	}
}

func TestCrossMachinePenalty(t *testing.T) {
	// Section 6.1: NCCL slows down when the ring crosses machines.
	c := DefaultCluster()
	bytes := 25 << 20
	within := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 8)
	across := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 9)
	if across < 2*within {
		t.Fatalf("crossing machines should hurt: %v vs %v", within, across)
	}
}

func TestHierarchicalMatchesFlatWithinOneServer(t *testing.T) {
	c := DefaultCluster()
	for _, world := range []int{1, 2, 4, 8} {
		for _, b := range []Backend{NCCLLike, GlooLike} {
			flat := c.AllReduceSeconds(b, comm.Ring, 4<<20, world)
			hier := c.AllReduceSeconds(b, comm.Hierarchical, 4<<20, world)
			if flat != hier {
				t.Fatalf("%v world %d: hierarchy inside one server should be a no-op: %v vs %v", b, world, flat, hier)
			}
		}
	}
}

func TestHierarchicalRecoversCrossMachineBandwidth(t *testing.T) {
	// The tentpole claim: for multi-host worlds at >= 1M-element
	// payloads the hierarchy's leader-only ring beats the flat ring
	// whose per-ring NIC share collapsed to 1/GPUsPerServer.
	c := DefaultCluster()
	bytes := 1_000_000 * 4
	for _, world := range []int{16, 32, 64, 128, 256} {
		flat := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, world)
		hier := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, bytes, world)
		if hier >= flat {
			t.Fatalf("world %d: hierarchical (%v) should beat flat ring (%v)", world, hier, flat)
		}
		// The recovery should be substantial, not marginal: the NIC
		// share goes from ~1/8 to 1/1.
		if flat/hier < 2 {
			t.Fatalf("world %d: recovery only %.2fx", world, flat/hier)
		}
	}
}

func TestHierarchicalTinyPayloadsStayLatencyBound(t *testing.T) {
	// For tiny buffers the hierarchy is pure latency: its inter-host
	// ring still pays 2(h-1) steps, which at large scale loses to a
	// log(k)-hop tree (2 binomial sweeps ~ 2*BroadcastSeconds' hop
	// count) — the reason comm.Auto keeps small buckets on Tree.
	c := DefaultCluster()
	hier := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, 256, 256)
	treeish := 2 * c.BroadcastSeconds(NCCLLike, 256, 256)
	if hier <= treeish {
		t.Fatalf("tiny payload at 256 ranks: hierarchical (%v) should lose to the log-k tree path (%v)", hier, treeish)
	}
}

func TestDoubleTreeBeatsRingLatencyOnSmallPayloads(t *testing.T) {
	// The tentpole claim for the small-bucket band: at <= 4Ki elements
	// the double tree's log-depth rounds beat the ring's 2(k-1) steps
	// once the world is deep enough that log2 k << k. Only the NCCL
	// profile walks the trees: the Gloo baseline models halving-doubling
	// whatever the algorithm.
	c := DefaultCluster()
	bytes := 4096 * 4
	for _, world := range []int{8, 32, 256} {
		ring := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, world)
		dt := c.AllReduceSeconds(NCCLLike, comm.DoubleTree, bytes, world)
		if dt >= ring {
			t.Fatalf("world %d: double tree (%v) should beat ring (%v) at 16KiB", world, dt, ring)
		}
	}
}

func TestDoubleTreeLosesBandwidthToRingOnHugePayloads(t *testing.T) {
	// Each 32 KiB chunk crosses a tree edge every other round, up then
	// down, so a huge payload pays about four hop latencies per chunk
	// where the ring pays 2(k-1) in all — the reason Auto keeps the large
	// band off DoubleTree.
	c := DefaultCluster()
	bytes := 100 << 20
	ring := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 8)
	dt := c.AllReduceSeconds(NCCLLike, comm.DoubleTree, bytes, 8)
	if dt <= ring {
		t.Fatalf("100MB world 8: ring (%v) should beat double tree (%v)", ring, dt)
	}
}

func TestDoubleTreeWorldOfOneFree(t *testing.T) {
	if DefaultCluster().AllReduceSeconds(NCCLLike, comm.DoubleTree, 1<<20, 1) != 0 {
		t.Fatal("single rank needs no communication")
	}
}

func TestNLevelFallsBackToTwoLevel(t *testing.T) {
	c := DefaultCluster()
	for _, world := range []int{4, 16, 64} {
		got := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, 4<<20, world)
		want := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, 4<<20, world, c.GPUsPerServer)
		if got != want {
			t.Fatalf("world %d: empty groupSizes should equal two-level: %v vs %v", world, got, want)
		}
	}
}

func TestNLevelDeepHierarchyShedsTopRingLatency(t *testing.T) {
	// 64 ranks as 4 pods x 2 racks x 8 GPUs: the three-level schedule's
	// top ring spans only 4 pod leaders instead of the two-level
	// schedule's 8 host leaders, trading 2(h-1) serial ring steps for
	// log-depth binomial hops — a latency win on small buffers.
	c := DefaultCluster()
	small := 4 << 10
	two := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, small, 64)
	three := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, small, 64, 2, 8)
	if three >= two {
		t.Fatalf("three-level (%v) should beat two-level (%v) at 4KB x 64 ranks", three, two)
	}
	// On big buffers the extra level's full-buffer binomial hops cost
	// 2*ceil(log2 g)*nBytes over the NIC, more than the ring's
	// 2(h-1)/h factor they displace: the model must expose that
	// bandwidth tradeoff rather than pretend deeper is always better...
	big := 25 << 20
	twoBig := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, big, 64)
	threeBig := c.AllReduceSeconds(NCCLLike, comm.Hierarchical, big, 64, 2, 8)
	if threeBig <= twoBig {
		t.Fatalf("three-level (%v) should pay for its extra level vs two-level (%v) at 25MB", threeBig, twoBig)
	}
	// ...while still beating the flat ring, whose per-ring NIC share
	// collapsed to 1/GPUsPerServer.
	flat := c.AllReduceSeconds(NCCLLike, comm.Ring, big, 64)
	if threeBig >= flat {
		t.Fatalf("three-level (%v) should beat the flat ring (%v)", threeBig, flat)
	}
}

func TestNLevelWorldOfOneFree(t *testing.T) {
	if DefaultCluster().AllReduceSeconds(GlooLike, comm.Hierarchical, 1<<20, 1, 1) != 0 {
		t.Fatal("single rank needs no communication")
	}
}

func TestSharedEntitlementJumpAt256(t *testing.T) {
	c := DefaultCluster()
	c.SharedEntitlement = true
	bytes := 25 << 20
	at128 := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 128)
	at256 := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 256)
	// Volume per rank grows only ~0.4% from 128 to 256; the jump must
	// come from the congestion factor.
	if at256 < 1.3*at128 {
		t.Fatalf("no congestion jump: %v -> %v", at128, at256)
	}
	c.SharedEntitlement = false
	smooth128 := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 128)
	smooth256 := c.AllReduceSeconds(NCCLLike, comm.Ring, bytes, 256)
	// The exclusive model still grows (ring latency term), but the
	// entitlement jump must be distinctly larger.
	if at256/at128 < 1.25*(smooth256/smooth128) {
		t.Fatalf("entitlement jump (%v) not distinctly larger than exclusive growth (%v)",
			at256/at128, smooth256/smooth128)
	}
}

func TestComputeProfileMagnitudes(t *testing.T) {
	// Fig 2(c): 60M params backward ≈ 250ms on GPU; Fig 2(d): ~6s CPU.
	gpu := Profile(GPU, 60e6)
	if math.Abs(gpu.BackwardSeconds-0.25) > 1e-9 {
		t.Fatalf("GPU backward = %v", gpu.BackwardSeconds)
	}
	cpu := Profile(CPU, 60e6)
	if math.Abs(cpu.BackwardSeconds-6.0) > 1e-9 {
		t.Fatalf("CPU backward = %v", cpu.BackwardSeconds)
	}
	if gpu.TotalSeconds() <= gpu.BackwardSeconds {
		t.Fatal("total must include forward and optimizer")
	}
}

func TestGradReadyLinearInCumulativeSize(t *testing.T) {
	p := Profile(GPU, 25_000_000)
	half := p.GradReadySeconds(12_500_000, 25_000_000)
	if math.Abs(half-p.BackwardSeconds/2) > 1e-9 {
		t.Fatalf("half the params ready at %v, want %v", half, p.BackwardSeconds/2)
	}
	if p.GradReadySeconds(0, 25_000_000) != 0 {
		t.Fatal("nothing ready at t=0")
	}
	if p.GradReadySeconds(25_000_000, 25_000_000) != p.BackwardSeconds {
		t.Fatal("all params ready exactly at backward end")
	}
}

func TestStringNames(t *testing.T) {
	if NCCLLike.String() != "nccl" || GlooLike.String() != "gloo" ||
		GPU.String() != "gpu" || CPU.String() != "cpu" {
		t.Fatal("names wrong")
	}
}

func TestHalfCollectivesComposeToAllReduce(t *testing.T) {
	// A ring ReduceScatter followed by a ring AllGather moves exactly
	// the ring AllReduce's steps and volume, so without entitlement
	// effects the halves must sum to the whole (NCCL profile; the Gloo
	// profile splits the halving-doubling rounds the same way) — except
	// on the NCCL profile between two ranks up to comm's ringPairMaxElems
	// (256Ki elements), where the AllReduce is one exchange: the whole
	// buffer either way, one hop's latency fewer.
	const pairMaxBytes = 4 * 256 << 10
	c := DefaultCluster()
	for _, b := range []Backend{NCCLLike, GlooLike} {
		for _, world := range []int{2, 8, 32} {
			for _, bytes := range []int{4 << 10, 4 << 20} {
				sum := c.ReduceScatterSeconds(b, bytes, world) + c.AllGatherSeconds(b, bytes, world)
				if b == NCCLLike && world == 2 && bytes <= pairMaxBytes {
					sum -= c.NCCLStepLatency
				}
				whole := c.AllReduceSeconds(b, comm.Ring, bytes, world)
				if diff := math.Abs(sum - whole); diff > 1e-12*whole {
					t.Fatalf("%v world %d %dB: RS+AG=%v, AllReduce=%v", b, world, bytes, sum, whole)
				}
			}
		}
	}
}

func TestHalfCollectivesWorldOfOneFree(t *testing.T) {
	c := DefaultCluster()
	if c.ReduceScatterSeconds(NCCLLike, 1<<20, 1) != 0 || c.AllGatherSeconds(GlooLike, 1<<20, 1) != 0 {
		t.Fatal("single rank half-collectives are free")
	}
}
