// Package simnet is the discrete-event simulator that stands in for the
// paper's 32–256 GPU testbed (see ARCHITECTURE.md, "Substitutions and
// the experiment index"). It replays
// the *same bucket schedule the real DDP reducer computes* — via
// ddp.AssignBuckets — against the hw package's calibrated NCCL/Gloo and
// GPU/CPU cost curves, reproducing per-iteration latency as a function
// of bucket size, world size, overlap, no_sync frequency, and the number
// of round-robin communication streams.
//
// The simulated timeline of one synchronized iteration:
//
//	forward ──► backward compute (gradients ready in reverse parameter
//	order, at times proportional to cumulative size) ──► each bucket
//	becomes ready when its last gradient lands ──► AllReduces launch in
//	bucket order on one of s communication streams ──► the optimizer
//	runs after both the backward compute and the last AllReduce finish.
//
// which is exactly Algorithm 1's behaviour.
package simnet

import (
	"fmt"
	"math/rand"

	"repro/internal/ddp"
	"repro/internal/hw"
)

// Config describes one simulated training configuration.
type Config struct {
	// ParamSizes are per-parameter element counts in registration order
	// (use models.Profile.Sizes()).
	ParamSizes []int
	// BucketCapBytes is DDP's bucket_cap_mb knob in bytes; <= -1 means
	// one bucket per parameter (the "0MB" baseline), 0 means the 25MB
	// default.
	BucketCapBytes int
	// World is the number of GPUs.
	World int
	// Backend picks the communication cost profile.
	Backend hw.Backend
	// Device picks the compute cost profile.
	Device hw.Device
	// ComputeIntensity is the workload's compute-per-parameter factor
	// (models.Profile.ComputeIntensity); 0 means 1.0 (conv-like).
	ComputeIntensity float64
	// Cluster is the hardware model (DefaultCluster if zero GPUsPerServer).
	Cluster hw.Cluster
	// Overlap enables DDP's communication/computation overlap; false
	// models the naive barrier-after-backward baseline of Fig 6.
	Overlap bool
	// SyncEveryN synchronizes gradients every n-th iteration (no_sync);
	// 0 or 1 means every iteration.
	SyncEveryN int
	// CommStreams is the number of round-robin process groups (Fig 12);
	// 0 or 1 means a single group.
	CommStreams int
	// CompressionRatio divides communicated bytes (Section 6.2.3
	// gradient compression ablation); 0 or 1 means uncompressed.
	CompressionRatio float64
	// Hierarchical prices AllReduces with the topology-aware
	// hierarchical cost model (hw.HierarchicalAllReduceSeconds: intra-
	// host reduce, leader-only inter-host ring, intra-host broadcast)
	// instead of the flat ring. Identical to the flat model while the
	// world fits one server.
	Hierarchical bool
	// DoubleTree prices AllReduces with the double-binary-tree cost
	// model (hw.DoubleTreeAllReduceSeconds: two complementary pipelined
	// trees, log-depth latency) instead of the flat ring. Takes
	// precedence over Hierarchical — comm's Auto policy never selects
	// both for the same bucket.
	DoubleTree bool
	// TopologyGroupSizes, when non-empty, prices hierarchical
	// AllReduces with the N-level model (hw.NLevelAllReduceSeconds)
	// over these per-level group sizes, outermost-first with ranks-
	// per-host last — matching comm.Topology's structured "/" labels.
	// Only consulted when Hierarchical is set.
	TopologyGroupSizes []int
	// Strategy selects the data-parallel state layout: "" or "ddp" is
	// replicated DDP (per-bucket AllReduce), "zero2" shards gradients
	// and optimizer state (per-bucket ReduceScatter in backward, one
	// parameter AllGather after the sharded optimizer step), "zero3"
	// also shards parameters (per-bucket AllGather one bucket ahead of
	// forward compute, re-gather plus ReduceScatter in backward except
	// for the bucket forward leaves gathered). The half-collectives are
	// priced with the flat-ring model (hw.ReduceScatterSeconds /
	// hw.AllGatherSeconds); Hierarchical/DoubleTree only affect
	// AllReduce, matching comm's algorithm policy.
	Strategy string
	// Jitter enables the stochastic effects observed in the paper's
	// box-whisker plots: per-iteration noise, stragglers growing with
	// world size, and delay spikes at 100-iteration boundaries.
	Jitter bool
	// Seed drives the jitter RNG.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.BucketCapBytes == 0 {
		c.BucketCapBytes = ddp.DefaultBucketCapBytes
	}
	if c.SyncEveryN <= 0 {
		c.SyncEveryN = 1
	}
	if c.CommStreams <= 0 {
		c.CommStreams = 1
	}
	if c.CompressionRatio <= 0 {
		c.CompressionRatio = 1
	}
	if c.ComputeIntensity <= 0 {
		c.ComputeIntensity = 1
	}
	if c.Cluster.GPUsPerServer == 0 {
		c.Cluster = hw.DefaultCluster()
	}
	if c.Strategy == "ddp" {
		c.Strategy = ""
	}
	return c
}

// allReduceCost prices one bucket's AllReduce under the configured
// algorithm family: double tree, N-level or two-level hierarchy, or
// the flat ring.
func (c Config) allReduceCost(bytes int) float64 {
	switch {
	case c.DoubleTree:
		return c.Cluster.DoubleTreeAllReduceSeconds(c.Backend, bytes, c.World)
	case c.Hierarchical && len(c.TopologyGroupSizes) > 0:
		return c.Cluster.NLevelAllReduceSeconds(c.Backend, bytes, c.World, c.TopologyGroupSizes)
	case c.Hierarchical:
		return c.Cluster.HierarchicalAllReduceSeconds(c.Backend, bytes, c.World)
	default:
		return c.Cluster.AllReduceSeconds(c.Backend, bytes, c.World)
	}
}

// Breakdown is the per-iteration latency decomposition of Fig 6.
type Breakdown struct {
	// ForwardSeconds is the forward-pass segment.
	ForwardSeconds float64
	// BackwardComputeSeconds is gradient computation.
	BackwardComputeSeconds float64
	// CommSeconds is the total AllReduce busy time (Fig 6's
	// "communication" segment; with overlap much of it hides under
	// backward compute).
	CommSeconds float64
	// ExposedCommSeconds is the communication time NOT hidden by
	// backward computation — what actually lengthens the iteration.
	ExposedCommSeconds float64
	// OptimizerSeconds is the optimizer-step segment.
	OptimizerSeconds float64
	// TotalSeconds is the per-iteration latency.
	TotalSeconds float64
	// Buckets is the number of gradient buckets used.
	Buckets int
}

// BucketEvent is one bucket's simulated schedule within an iteration —
// the event log of Algorithm 1's communication side.
type BucketEvent struct {
	// Bucket is the bucket index (launch order).
	Bucket int
	// Bytes is the communicated size after compression.
	Bytes int
	// ReadySeconds is when the bucket's last gradient landed.
	ReadySeconds float64
	// StartSeconds is when its AllReduce began (>= ready, and >= the
	// previous op's end on the same communication stream).
	StartSeconds float64
	// EndSeconds is when its AllReduce finished.
	EndSeconds float64
	// Stream is the round-robin communication stream it ran on.
	Stream int
}

// SimulateIteration computes one synchronized iteration's breakdown
// (deterministic; apply jitter via Run for distributions).
func SimulateIteration(cfg Config) (Breakdown, error) {
	b, _, err := SimulateIterationTimeline(cfg)
	return b, err
}

// SimulateIterationTimeline is SimulateIteration returning the
// per-bucket schedule as well, for schedule-level analysis and tests.
func SimulateIterationTimeline(cfg Config) (Breakdown, []BucketEvent, error) {
	cfg = cfg.withDefaults()
	return simulate(cfg, nil, 0)
}

// simulate runs the event model; rng may be nil for determinism. iter is
// used for 100-iteration boundary spikes.
func simulate(cfg Config, rng *rand.Rand, iter int) (Breakdown, []BucketEvent, error) {
	n := len(cfg.ParamSizes)
	if n == 0 {
		return Breakdown{}, nil, fmt.Errorf("simnet: empty model")
	}
	total := 0
	for _, s := range cfg.ParamSizes {
		total += s
	}
	prof := hw.ProfileScaled(cfg.Device, total, cfg.ComputeIntensity)

	assign, err := ddp.AssignBuckets(cfg.ParamSizes, cfg.BucketCapBytes, 4, ddp.ReverseOrder(n))
	if err != nil {
		return Breakdown{}, nil, err
	}

	// Jitter: compute noise is a straggler effect (max over world of
	// per-rank noise, so it grows with scale); spikes at 100-iteration
	// boundaries model DDP instance re-construction and input
	// regeneration (the outliers the paper calls out in Fig 7).
	computeScale := 1.0
	spike := 0.0
	if cfg.Jitter && rng != nil {
		straggler := 0.0
		for r := 0; r < cfg.World; r++ {
			if v := rng.NormFloat64() * 0.015; v > straggler {
				straggler = v
			}
		}
		computeScale = 1 + straggler + 0.005*rng.NormFloat64()
		if computeScale < 0.9 {
			computeScale = 0.9
		}
		if iter > 0 && iter%100 == 0 {
			spike = prof.TotalSeconds() * (0.3 + 0.2*rng.Float64())
		}
	}

	forward := prof.ForwardSeconds * computeScale
	backward := prof.BackwardSeconds * computeScale
	optimizer := prof.OptimizerSeconds
	if cfg.Strategy != "" {
		// The sharded optimizer touches only the owned 1/world of the
		// state (a memory-bound pass, so it scales with elements).
		optimizer /= float64(cfg.World)
	}

	// Bucket ready times: gradients land in reverse registration order;
	// a bucket is ready when its last (largest-cumulative) member lands.
	readyAt := make([]float64, assign.NumBuckets())
	cum := 0
	for b, members := range assign.Buckets {
		for _, idx := range members {
			cum += cfg.ParamSizes[idx]
		}
		readyAt[b] = prof.GradReadySeconds(cum, total) * computeScale
	}

	// Communication: buckets launch in order onto s round-robin streams.
	streams := make([]float64, cfg.CommStreams) // per-stream free time
	commBusy := 0.0
	lastCommEnd := 0.0
	events := make([]BucketEvent, 0, assign.NumBuckets())
	// Sharded strategies exchange state outside the backward stream
	// loop too. ZeRO-2 re-gathers replicated parameters once after the
	// sharded optimizer step, all of it exposed. ZeRO-3 gathers every
	// parameter bucket in forward, in forward order (the last bucket
	// first) and one bucket ahead of the layers that read it (fsdp's
	// gather plan): the first gather is exposed — compute cannot start on
	// unmaterialized layers — and the rest hide behind forward compute
	// as far as it goes. Gathers move raw parameter bytes; gradient
	// compression only applies to the reduction path.
	gather := func(b int) float64 {
		return cfg.Cluster.AllGatherSeconds(cfg.Backend, assign.BucketElems[b]*4, cfg.World)
	}
	var gatherBusy, gatherExposed float64
	if cfg.Strategy != "" {
		for b := 0; b < assign.NumBuckets(); b++ {
			gatherBusy += gather(b)
		}
		gatherExposed = gatherBusy
		if cfg.Strategy == "zero3" {
			first := gather(assign.NumBuckets() - 1)
			gatherExposed = first + max(0, gatherBusy-first-forward)
		}
	}
	for b := 0; b < assign.NumBuckets(); b++ {
		bytes := int(float64(assign.BucketElems[b]*4) / cfg.CompressionRatio)
		var cost float64
		switch cfg.Strategy {
		case "zero2":
			// Backward reduces each bucket to its owner shard only.
			cost = cfg.Cluster.ReduceScatterSeconds(cfg.Backend, bytes, cfg.World)
		case "zero3":
			// Backward re-gathers the (freed) parameter bucket for
			// gradient computation, then reduce-scatters the gradients.
			// Bucket 0 holds the last layers, which backward reads
			// first: forward leaves it gathered.
			cost = cfg.Cluster.ReduceScatterSeconds(cfg.Backend, bytes, cfg.World)
			if b > 0 {
				cost += gather(b)
			}
		default:
			cost = cfg.allReduceCost(bytes)
		}
		commBusy += cost
		s := b % cfg.CommStreams
		start := readyAt[b]
		if !cfg.Overlap {
			start = backward // barrier: communication begins after backward
		}
		if streams[s] > start {
			start = streams[s]
		}
		end := start + cost
		streams[s] = end
		if end > lastCommEnd {
			lastCommEnd = end
		}
		events = append(events, BucketEvent{
			Bucket:       b,
			Bytes:        bytes,
			ReadySeconds: readyAt[b],
			StartSeconds: start,
			EndSeconds:   end,
			Stream:       s,
		})
	}

	backwardSpan := backward
	if cfg.World > 1 && lastCommEnd > backwardSpan {
		backwardSpan = lastCommEnd
	}
	exposed := backwardSpan - backward
	if cfg.World > 1 {
		// This gather traffic never hides under backward compute:
		// ZeRO-3 pays it in forward, ZeRO-2 after the optimizer.
		commBusy += gatherBusy
		exposed += gatherExposed
	} else {
		gatherExposed = 0
	}

	totalLatency := forward + backwardSpan + optimizer + gatherExposed + spike
	return Breakdown{
		ForwardSeconds:         forward,
		BackwardComputeSeconds: backward,
		CommSeconds:            commBusy,
		ExposedCommSeconds:     exposed,
		OptimizerSeconds:       optimizer,
		TotalSeconds:           totalLatency,
		Buckets:                assign.NumBuckets(),
	}, events, nil
}

// Run simulates iters training iterations and returns each iteration's
// latency in seconds, honouring SyncEveryN: skipped iterations carry no
// communication at all (DDP hooks disabled under no_sync).
func Run(cfg Config, iters int) ([]float64, error) {
	cfg = cfg.withDefaults()
	var rng *rand.Rand
	if cfg.Jitter {
		rng = rand.New(rand.NewSource(cfg.Seed))
	}
	latencies := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		syncIter := (i+1)%cfg.SyncEveryN == 0
		c := cfg
		if !syncIter {
			// Local-only iteration: same compute, no communication.
			c.World = 1
		}
		b, _, err := simulate(c, rng, i)
		if err != nil {
			return nil, err
		}
		latencies = append(latencies, b.TotalSeconds)
	}
	return latencies, nil
}

// MeanLatency runs the simulation and returns the average per-iteration
// latency — the metric of Figs 9 and 10.
func MeanLatency(cfg Config, iters int) (float64, error) {
	lat, err := Run(cfg, iters)
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, v := range lat {
		sum += v
	}
	return sum / float64(len(lat)), nil
}
