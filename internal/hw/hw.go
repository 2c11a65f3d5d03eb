// Package hw models the hardware the paper's evaluation ran on: V100
// GPUs (NVLink within a server, 100 Gb/s NICs across servers), NCCL and
// Gloo collective cost curves, and GPU/CPU backward-pass compute curves.
// An NCCL-profile collective is priced by walking the step lists
// internal/comm runs for it over the cluster's links, so the model
// follows the schedules instead of restating them.
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
	"strconv"
	"strings"

	"repro/internal/comm"
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
	// NCCLStepLatency is the base latency of one NCCL-profile frame on
	// any link (one hop of a walked schedule), seconds.
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
// nBytes across world ranks under algo (resolved, not comm.Auto). The
// NCCL profile walks the step lists comm runs for algo over the
// cluster's links (comm.WalkAllReduce, priced by hop); groupSizes lay a
// Hierarchical world out as nested comm.Topology labels, outermost level
// first and the server innermost, one group per server without them.
// The Gloo profile is halving-doubling whatever algo asks for (see
// cost).
func (c Cluster) AllReduceSeconds(b Backend, algo comm.Algorithm, nBytes, world int, groupSizes ...int) float64 {
	return c.cost(b, world, 2*c.halvingSeconds(nBytes, world), func() float64 {
		return comm.WalkAllReduce(algo, c.topology(world, groupSizes), world, nBytes/4, c.hop(algo == comm.Hierarchical))
	})
}

// ReduceScatterSeconds returns the modeled wall time of one
// ReduceScatter of nBytes across world ranks: comm.ReduceScatterV's ring
// pass, the collective ZeRO-2/3 replaces gradient AllReduce with. Each
// rank keeps only the reduced 1/k it owns, so sharded data parallel pays
// half the ring's steps and half its volume per direction of the state
// exchange.
func (c Cluster) ReduceScatterSeconds(b Backend, nBytes int, world int) float64 {
	return c.cost(b, world, c.halvingSeconds(nBytes, world), func() float64 {
		return comm.WalkReduceScatterV(world, nBytes/4, c.hop(false))
	})
}

// AllGatherSeconds returns the modeled wall time of one AllGather of
// nBytes (the full, concatenated buffer size) across world ranks:
// comm.AllGatherV's ring pass. Sharded data parallel runs one per
// bucket gather its step's plan makes, to materialize parameters on
// demand: once a step under ZeRO-2's whole-model budget, again for
// backward where ZeRO-3's budget dropped the bucket.
func (c Cluster) AllGatherSeconds(b Backend, nBytes int, world int) float64 {
	return c.cost(b, world, c.halvingSeconds(nBytes, world), func() float64 {
		return comm.WalkAllGatherV(world, nBytes/4, c.hop(false))
	})
}

// BroadcastSeconds returns the modeled wall time of a binomial-tree
// broadcast of nBytes from rank 0 across world ranks: comm's Broadcast.
func (c Cluster) BroadcastSeconds(b Backend, nBytes int, world int) float64 {
	gloo := math.Ceil(math.Log2(float64(world))) * (c.GlooStepLatency + float64(nBytes)/c.GlooBandwidth)
	return c.cost(b, world, gloo, func() float64 {
		return comm.WalkBroadcast(world, nBytes/4, c.hop(false))
	})
}

// cost is the one switch between the profiles: a collective over world
// ranks costs gloo on the Gloo profile and what walk finds on the NCCL
// one, either scaled by the shared entitlement when the cluster has one.
// Gloo keeps a closed form because its algorithm is not one comm runs:
// recursive halving-doubling, which Fig 2(b) is calibrated to.
func (c Cluster) cost(b Backend, world int, gloo float64, walk func() float64) float64 {
	if world <= 1 {
		return 0
	}
	var t float64
	switch b {
	case NCCLLike:
		t = walk()
	case GlooLike:
		t = gloo
	default:
		panic("hw: unknown backend")
	}
	if c.SharedEntitlement {
		t *= c.entitlementFactor(world)
	}
	return t
}

// halvingSeconds is one half of Gloo's halving-doubling AllReduce, a
// reduce-scatter or an all-gather of nBytes over k = world ranks:
// ceil(log2 k) rounds moving (k-1)/k of the buffer in all.
func (c Cluster) halvingSeconds(nBytes int, world int) float64 {
	k := float64(world)
	bw := c.GlooBandwidth
	if world > 2 {
		bw *= 2 // distinct full-duplex paths per directed edge
	}
	return math.Ceil(math.Log2(k))*c.GlooStepLatency + (k-1)/k*float64(nBytes)/bw
}

// hop is the NCCL profile's link, NCCLStepLatency plus the frame over
// the link's bandwidth: NVLink between GPUs of one server (ranks fill
// servers in order), the NIC between servers. A flat schedule shares
// the NIC with the GPUsPerServer rings NCCL runs at once, so each of its
// crossings gets CrossMachineEfficiency/GPUsPerServer of it — the
// collapse the paper observes when a job spans machines (Section 6.1,
// Resource Allocation). A hierarchical one (ownNIC) crosses with one
// leader per server, which owns the NIC.
func (c Cluster) hop(ownNIC bool) comm.Hop {
	nic := c.NICBandwidth * c.CrossMachineEfficiency / float64(c.GPUsPerServer)
	if ownNIC {
		nic = c.NICBandwidth
	}
	return func(from, to, bytes int) float64 {
		bw := c.NVLinkBandwidth
		if from/c.GPUsPerServer != to/c.GPUsPerServer {
			bw = nic
		}
		return c.NCCLStepLatency + float64(bytes)/bw
	}
}

// topology labels world ranks with their groups, outermost first: a
// rank's label at level i is its index among groups of groupSizes[i] ·
// ... · groupSizes[last] consecutive ranks, the last size being a
// server's (the default).
func (c Cluster) topology(world int, groupSizes []int) *comm.Topology {
	if len(groupSizes) == 0 {
		groupSizes = []int{c.GPUsPerServer}
	}
	hosts := make([]string, world)
	for r := range hosts {
		labels := make([]string, len(groupSizes))
		span := 1
		for i := len(groupSizes) - 1; i >= 0; i-- {
			span *= groupSizes[i]
			labels[i] = strconv.Itoa(r / span)
		}
		hosts[r] = strings.Join(labels, "/")
	}
	return comm.NewTopology(hosts)
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
