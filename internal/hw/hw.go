// Package hw models the hardware the paper's evaluation ran on: V100
// GPUs (NVLink within a server, 100 Gb/s NICs across servers), NCCL and
// Gloo collective cost curves, and GPU/CPU backward-pass compute curves.
//
// This is the substitution for the physical testbed (see
// ARCHITECTURE.md, "Substitutions and the experiment index"): the
// constants are calibrated so that the model reproduces the shapes of
// the paper's Fig 2 — NCCL AllReduce total time falling monotonically
// with per-op tensor size with no saturation through 20M parameters,
// Gloo saturating near 500K parameters, a ~250ms GPU backward pass and a
// ~6s CPU backward pass for a 60M-parameter model.
package hw

import (
	"fmt"
	"math"
)

// Backend identifies a collective communication cost profile.
type Backend int

// Supported backend profiles.
const (
	// NCCLLike models NCCL over NVLink/NIC: low per-op latency, high
	// bandwidth, no saturation for large tensors.
	NCCLLike Backend = iota
	// GlooLike models Gloo on CPU tensors over TCP: two orders of
	// magnitude higher per-op latency, bandwidth saturating at ~2MB.
	GlooLike
)

// String returns the profile name used in benchmark tables.
func (b Backend) String() string {
	switch b {
	case NCCLLike:
		return "nccl"
	case GlooLike:
		return "gloo"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// Device identifies a compute cost profile.
type Device int

// Supported compute profiles.
const (
	// GPU models a V100: ResNet152-scale (60M params) backward in ~250ms.
	GPU Device = iota
	// CPU models the same backward pass on CPU: ~6s (paper Fig 2(d)).
	CPU
)

// String returns the device name.
func (d Device) String() string {
	if d == GPU {
		return "gpu"
	}
	return "cpu"
}

// Cluster describes the evaluation testbed (paper Section 5, Fig 5):
// servers of GPUsPerServer GPUs with NVLink inside a server and a shared
// NIC between servers.
type Cluster struct {
	// GPUsPerServer is 8 in the paper's exclusive cluster.
	GPUsPerServer int
	// NVLinkBandwidth is the per-link bandwidth between GPUs in the same
	// server, bytes/sec.
	NVLinkBandwidth float64
	// NICBandwidth is the per-server network bandwidth, bytes/sec
	// (Mellanox 100 Gb/s ConnectX-4 in the paper).
	NICBandwidth float64
	// CrossMachineEfficiency calibrates how much of the NIC each of the
	// GPUsPerServer concurrent rings effectively obtains (ring edges are
	// not all simultaneously active, so the share exceeds 1/n slightly).
	CrossMachineEfficiency float64
	// NCCLStepLatency is the per-ring-step base latency of the NCCL
	// profile, seconds.
	NCCLStepLatency float64
	// GlooStepLatency is the per-round base latency of the Gloo profile,
	// seconds (Gloo's CPU/TCP path is far slower per op). Gloo uses
	// recursive halving-doubling, so an op has 2·ceil(log2 k) rounds.
	GlooStepLatency float64
	// GlooBandwidth is Gloo's saturated bandwidth for a 2-rank exchange,
	// bytes/sec (both directions of the pair share one path). Rings over
	// 3+ ranks place each directed edge on its own full-duplex path and
	// get twice this.
	GlooBandwidth float64
	// SharedEntitlement adds the >32 GPU effects of Section 5.3: varying
	// hosts, congestion, and the latency jump from 128 to 256 GPUs.
	SharedEntitlement bool
}

// DefaultCluster returns constants calibrated against the paper's
// figures.
func DefaultCluster() Cluster {
	return Cluster{
		GPUsPerServer:          8,
		NVLinkBandwidth:        40e9,   // effective ring-edge NVLink bandwidth
		NICBandwidth:           11.5e9, // ~100 Gb/s minus protocol overhead
		CrossMachineEfficiency: 1.25,
		NCCLStepLatency:        9e-6,
		GlooStepLatency:        80e-6,
		GlooBandwidth:          0.5e9,
	}
}

// AllReduceSeconds returns the modeled wall time of one AllReduce of
// nBytes across world ranks using a ring algorithm. The ring AllReduce
// is a ring reduce-scatter followed by a ring all-gather — in comm
// literally so — and is priced as that sum:
//
//	T = 2(k-1) * stepLatency + 2 (k-1)/k * nBytes / edgeBandwidth
//
// The edge bandwidth is NVLink while the ring stays inside one server.
// Once the ring spans servers, every server's NIC carries the crossing
// edges of all GPUsPerServer concurrent rings (NCCL opens one ring per
// GPU), so the effective per-ring edge bandwidth collapses to
// NIC/GPUsPerServer — which is why the paper observes a marked slowdown
// when crossing machine boundaries (Section 6.1, Resource Allocation).
func (c Cluster) AllReduceSeconds(b Backend, nBytes int, world int) float64 {
	return c.ReduceScatterSeconds(b, nBytes, world) + c.AllGatherSeconds(b, nBytes, world)
}

// ReduceScatterSeconds returns the modeled wall time of one
// ReduceScatter of nBytes across world ranks — the first half of the
// ring AllReduce:
//
//	T = (k-1) * stepLatency + (k-1)/k * nBytes / edgeBandwidth
//
// This is the collective ZeRO-2/3 replaces gradient AllReduce with:
// each rank keeps only the reduced 1/k it owns, so sharded data
// parallel pays half the ring's steps and half its volume per
// direction of the state exchange.
func (c Cluster) ReduceScatterSeconds(b Backend, nBytes int, world int) float64 {
	return c.halfRingSeconds(b, nBytes, world)
}

// AllGatherSeconds returns the modeled wall time of one AllGather of
// nBytes (the full, concatenated buffer size) across world ranks — the
// second half of the ring AllReduce. ZeRO-2 runs one per step to
// rebuild replicated parameters from sharded optimizer updates; ZeRO-3
// runs one per bucket per pass to materialize parameters on demand.
func (c Cluster) AllGatherSeconds(b Backend, nBytes int, world int) float64 {
	return c.halfRingSeconds(b, nBytes, world)
}

// halfRingSeconds is the shared cost of the two half-collectives: a
// ring pass of k-1 steps moving (k-1)/k of the buffer over the busiest
// edge (the Gloo profile gets its halving-doubling analogue,
// ceil(log2 k) rounds). Edge bandwidth collapses across machine
// boundaries as AllReduceSeconds describes. The k-1 steps are what
// comm.ReduceScatterV and AllGatherV each execute: the reduce-scatter's
// last fold lands on the chunk's owner, with no extra hop to hand the
// chunk over.
func (c Cluster) halfRingSeconds(b Backend, nBytes int, world int) float64 {
	if world <= 1 {
		return 0
	}
	k := float64(world)
	volume := (k - 1) / k * float64(nBytes)
	var t float64
	switch b {
	case NCCLLike:
		steps := k - 1
		edge := c.NVLinkBandwidth
		if world > c.GPUsPerServer {
			edge = c.NICBandwidth * c.CrossMachineEfficiency / float64(c.GPUsPerServer)
		}
		t = steps*c.NCCLStepLatency + volume/edge
	case GlooLike:
		rounds := math.Ceil(math.Log2(k))
		bw := c.GlooBandwidth
		if world > 2 {
			bw *= 2 // distinct full-duplex paths per directed edge
		}
		t = rounds*c.GlooStepLatency + volume/bw
	default:
		panic("hw: unknown backend")
	}
	if c.SharedEntitlement {
		t *= c.entitlementFactor(world)
	}
	return t
}

// Servers returns how many machines a world of the given size spans
// (GPUs fill servers in rank order, GPUsPerServer per machine).
func (c Cluster) Servers(world int) int {
	if world <= 0 {
		return 0
	}
	return (world + c.GPUsPerServer - 1) / c.GPUsPerServer
}

// HierarchicalAllReduceSeconds returns the modeled wall time of one
// topology-aware hierarchical AllReduce of nBytes across world ranks:
// intra-host binomial reduce onto per-server leaders, ring AllReduce
// among the h leaders, intra-host binomial broadcast back:
//
//	T = 2 ceil(log2 g) * (stepLatency + nBytes/intraEdge)   // phases 1+3
//	  + 2(h-1) * stepLatency + 2 (h-1)/h * nBytes / nic     // phase 2
//
// The win over the flat ring (AllReduceSeconds) is in phase 2's edge
// bandwidth: only ONE ring per server crosses machines, so its edges
// get the whole NIC instead of a 1/GPUsPerServer share — at the price
// of the extra intra-host hops, which ride NVLink and are cheap for
// large buffers. Below one full server the hierarchy is empty and the
// model equals the flat ring's.
func (c Cluster) HierarchicalAllReduceSeconds(b Backend, nBytes int, world int) float64 {
	if world <= c.GPUsPerServer {
		return c.AllReduceSeconds(b, nBytes, world)
	}
	h := float64(c.Servers(world))
	hops := 2 * math.Ceil(math.Log2(float64(c.GPUsPerServer)))
	ringSteps := 2 * (h - 1)
	ringVolume := 2 * (h - 1) / h * float64(nBytes)

	var t float64
	switch b {
	case NCCLLike:
		// Leaders' ring edges own the NIC outright (one crossing ring
		// per server), so no GPUsPerServer division and no concurrency
		// bonus to claim back.
		t = hops*(c.NCCLStepLatency+float64(nBytes)/c.NVLinkBandwidth) +
			ringSteps*c.NCCLStepLatency + ringVolume/c.NICBandwidth
	case GlooLike:
		intraBW := c.GlooBandwidth
		ringBW := c.GlooBandwidth
		if h > 2 {
			ringBW *= 2 // distinct full-duplex paths per directed ring edge
		}
		t = hops*(c.GlooStepLatency+float64(nBytes)/intraBW) +
			ringSteps*c.GlooStepLatency + ringVolume/ringBW
	default:
		panic("hw: unknown backend")
	}
	if c.SharedEntitlement {
		t *= c.entitlementFactor(world)
	}
	return t
}

// doubleTreeChunkBytes mirrors comm's pipeline granularity (8Ki float32
// elements per chunk) so the modeled critical path counts the same
// number of pipelined hops the implementation issues.
const doubleTreeChunkBytes = 32 << 10

// DoubleTreeAllReduceSeconds returns the modeled wall time of one
// double-binary-tree AllReduce of nBytes across world ranks (the
// NCCL-2.4 construction: two complementary trees, each carrying half
// the payload, pipelined in fixed-size chunks):
//
//	depth  = ceil(log2(k+1))
//	chunks = ceil((nBytes/2) / chunkBytes)
//	T = 2 (depth + chunks - 1) * stepLatency + 3/2 * nBytes / edgeBandwidth
//
// Latency is logarithmic in k instead of the ring's linear 2(k-1)
// steps, which is the whole point for small buffers on deep worlds.
// The bandwidth term reflects that an inner node of one tree forwards
// its half twice (up and down) while being a leaf of the other tree,
// for ~3/2 of the buffer over the busiest edge — slightly worse than
// the ring's 2(k-1)/k but within a constant. Edge bandwidth follows the
// same cross-machine collapse as AllReduceSeconds: NVLink inside one
// server, NIC/GPUsPerServer once tree edges span machines.
func (c Cluster) DoubleTreeAllReduceSeconds(b Backend, nBytes int, world int) float64 {
	if world <= 1 {
		return 0
	}
	depth := math.Ceil(math.Log2(float64(world + 1)))
	chunks := math.Ceil(float64(nBytes) / 2 / doubleTreeChunkBytes)
	if chunks < 1 {
		chunks = 1
	}
	hops := 2 * (depth + chunks - 1)
	volume := 1.5 * float64(nBytes)
	var t float64
	switch b {
	case NCCLLike:
		edge := c.NVLinkBandwidth
		if world > c.GPUsPerServer {
			edge = c.NICBandwidth * c.CrossMachineEfficiency / float64(c.GPUsPerServer)
		}
		t = hops*c.NCCLStepLatency + volume/edge
	case GlooLike:
		bw := c.GlooBandwidth
		if world > 2 {
			bw *= 2 // distinct full-duplex paths per directed tree edge
		}
		t = hops*c.GlooStepLatency + volume/bw
	default:
		panic("hw: unknown backend")
	}
	if c.SharedEntitlement {
		t *= c.entitlementFactor(world)
	}
	return t
}

// NLevelAllReduceSeconds returns the modeled wall time of an N-level
// hierarchical AllReduce over the given per-level group sizes, listed
// outermost-first (e.g. hosts-per-rack at index 0 ... ranks-per-host
// last, matching comm.Topology's level order). Each level contributes a
// binomial reduce on the way up and a broadcast on the way down:
//
//	T = sum over levels: 2 ceil(log2 g_l) * (stepLatency + nBytes/edge_l)
//	  + 2(h-1) * stepLatency + 2 (h-1)/h * nBytes / nic   // top leader ring
//
// where h = world / prod(g_l) leaders remain for the top ring. The
// innermost level rides NVLink; every outer level and the top ring pay
// the NIC, but — as in HierarchicalAllReduceSeconds — with full
// ownership, since only one leader per group crosses that boundary.
// An empty groupSizes falls back to the two-level model.
func (c Cluster) NLevelAllReduceSeconds(b Backend, nBytes int, world int, groupSizes []int) float64 {
	if world <= 1 {
		return 0
	}
	if len(groupSizes) == 0 {
		return c.HierarchicalAllReduceSeconds(b, nBytes, world)
	}
	remaining := world
	var t float64
	for i := len(groupSizes) - 1; i >= 0; i-- {
		g := groupSizes[i]
		if g <= 1 {
			continue
		}
		hops := 2 * math.Ceil(math.Log2(float64(g)))
		var edge float64
		switch b {
		case NCCLLike:
			edge = c.NVLinkBandwidth
			if i < len(groupSizes)-1 {
				edge = c.NICBandwidth // leaders own the cross-group links
			}
			t += hops * (c.NCCLStepLatency + float64(nBytes)/edge)
		case GlooLike:
			t += hops * (c.GlooStepLatency + float64(nBytes)/c.GlooBandwidth)
		default:
			panic("hw: unknown backend")
		}
		remaining = (remaining + g - 1) / g
	}
	if h := float64(remaining); h > 1 {
		ringSteps := 2 * (h - 1)
		ringVolume := 2 * (h - 1) / h * float64(nBytes)
		switch b {
		case NCCLLike:
			t += ringSteps*c.NCCLStepLatency + ringVolume/c.NICBandwidth
		case GlooLike:
			ringBW := c.GlooBandwidth
			if h > 2 {
				ringBW *= 2
			}
			t += ringSteps*c.GlooStepLatency + ringVolume/ringBW
		}
	}
	if c.SharedEntitlement {
		t *= c.entitlementFactor(world)
	}
	return t
}

// entitlementFactor models the shared entitlement of Section 5.3: mild
// degradation as jobs span more (heterogeneous) hosts, plus the sudden
// congestion jump the paper observed going from 128 to 256 GPUs.
func (c Cluster) entitlementFactor(world int) float64 {
	f := 1 + 0.02*math.Log2(float64(world))
	if world > 128 {
		f *= 1.45 // "slow or congested links among some of those 256 nodes"
	}
	return f
}

// BroadcastSeconds returns the modeled wall time of a binomial-tree
// broadcast of nBytes across world ranks.
func (c Cluster) BroadcastSeconds(b Backend, nBytes int, world int) float64 {
	if world <= 1 {
		return 0
	}
	hops := math.Ceil(math.Log2(float64(world)))
	switch b {
	case NCCLLike:
		edge := c.NVLinkBandwidth
		if world > c.GPUsPerServer {
			edge = c.NICBandwidth * c.CrossMachineEfficiency / float64(c.GPUsPerServer)
		}
		return hops * (c.NCCLStepLatency + float64(nBytes)/edge)
	case GlooLike:
		return hops * (c.GlooStepLatency + float64(nBytes)/c.GlooBandwidth)
	default:
		panic("hw: unknown backend")
	}
}

// Reference points for the compute model, from the paper's Fig 2(c)/(d):
// a ~60M parameter ResNet152 takes ~250ms backward on GPU and ~6s on CPU.
const (
	refParams      = 60e6
	gpuBackwardRef = 0.25
	cpuBackwardRef = 6.0
)

// ComputeProfile is the per-iteration compute cost of a model replica,
// exclusive of communication.
type ComputeProfile struct {
	// ForwardSeconds is the forward-pass time.
	ForwardSeconds float64
	// BackwardSeconds is the backward-pass computation time (gradient
	// production only; AllReduce is accounted separately).
	BackwardSeconds float64
	// OptimizerSeconds is the optimizer step time.
	OptimizerSeconds float64
}

// Profile returns the compute profile of a conv-net-like model with
// totalParams parameters on the given device (intensity 1; the
// reference curves of Fig 2(c)/(d) are from ResNet152).
func Profile(d Device, totalParams int) ComputeProfile {
	return ProfileScaled(d, totalParams, 1)
}

// ProfileScaled is Profile with a compute-intensity factor: seconds of
// compute per parameter relative to the convolutional reference.
// Convolutions reuse each weight across every spatial position, so conv
// nets burn far more FLOPs per parameter than transformers; BERT-large
// has ~13x ResNet50's parameters but nowhere near 13x its step time
// (paper Fig 9(a) vs 9(c)). The models package carries the per-workload
// intensity.
//
// Forward ≈ half of backward and the optimizer is a memory-bound pass
// over the parameters, matching the relative segment sizes of Fig 6.
func ProfileScaled(d Device, totalParams int, intensity float64) ComputeProfile {
	if intensity <= 0 {
		intensity = 1
	}
	scale := float64(totalParams) / refParams * intensity
	var bwd float64
	switch d {
	case GPU:
		bwd = gpuBackwardRef * scale
	case CPU:
		bwd = cpuBackwardRef * scale
	default:
		panic("hw: unknown device")
	}
	return ComputeProfile{
		ForwardSeconds:   0.5 * bwd,
		BackwardSeconds:  bwd,
		OptimizerSeconds: 0.08 * bwd,
	}
}

// TotalSeconds is the non-overlapped compute-only iteration time.
func (p ComputeProfile) TotalSeconds() float64 {
	return p.ForwardSeconds + p.BackwardSeconds + p.OptimizerSeconds
}

// GradReadySeconds returns when, during the backward pass, the gradient
// for the parameter whose cumulative (from the output side) element
// count is cumElems out of totalElems becomes ready. The paper's
// Fig 2(c)/(d) curves are approximately proportional to the fraction of
// parameters processed, so the model is linear in cumulative size.
func (p ComputeProfile) GradReadySeconds(cumElems, totalElems int) float64 {
	if totalElems == 0 {
		return 0
	}
	return p.BackwardSeconds * (float64(cumElems) / float64(totalElems))
}
