// Package simnet is the discrete-event simulator that stands in for the
// paper's 32–256 GPU testbed (see ARCHITECTURE.md, "Substitutions and
// the experiment index"). It walks the step the replicas run —
// replica.Schedule over reduce.AssignBuckets' layout — against the hw
// package's calibrated NCCL/Gloo and GPU/CPU cost curves. The training
// clock runs the forward visits of the parameters, their backward
// visits in reverse, then one optimizer update per bucket, each taking
// its element share of hw.ComputeProfile's time; one clock per stream
// serves the collectives in submission order, each priced as comm runs
// it; a segment starts once what the schedule says it waits for is done.
// Under DDP that is Algorithm 1: AllReduces launch in bucket order as
// gradients land, and the optimizer runs after the last one. The
// sharded strategies' shape is the schedule's alone.
package simnet

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/comm"
	"repro/internal/hw"
	"repro/internal/reduce"
	"repro/internal/replica"
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
	// CompressionRatio divides communicated gradient bytes (Section
	// 6.2.3 gradient compression ablation); 0 or 1 means uncompressed.
	CompressionRatio float64
	// Hierarchical prices AllReduces as comm.Hierarchical runs them
	// (hw.Cluster.AllReduceSeconds walks its schedule: intra-server
	// reduce, leader-only inter-server ring, intra-server broadcast)
	// instead of as the flat ring. Identical to the flat ring while the
	// world fits one server.
	Hierarchical bool
	// Strategy names the step replica.Schedule builds: "" or "ddp", or a
	// sharded preset as fsdp.Strategy spells it, whose optimizer
	// updates 1/World of the state, whose gathers move raw bytes, and
	// which no replica runs with Overlap false, SyncEveryN or
	// CommStreams: those are errors. The half-collectives are priced as
	// the flat ring passes comm.ReduceScatterV and AllGatherV run;
	// Hierarchical only affects AllReduce, matching comm's policy.
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
		c.BucketCapBytes = reduce.DefaultBucketCapBytes
	}
	c.SyncEveryN = max(c.SyncEveryN, 1)
	c.CommStreams = max(c.CommStreams, 1)
	if c.CompressionRatio <= 0 {
		c.CompressionRatio = 1
	}
	if c.Cluster.GPUsPerServer == 0 {
		c.Cluster = hw.DefaultCluster()
	}
	return c
}

// prices memoizes what a configuration's collectives cost, keyed by
// kind, payload bytes and world (Run drops it to 1 on no_sync
// iterations): walking a schedule at world 256 is worth doing once.
type prices map[[3]int]float64

// of returns, computing it once, what the collective of bytes costs
// under cfg: AllReduce under the configured algorithm, Hierarchical or
// the flat ring, and the sharded halves always flat, as comm runs them.
func (p prices) of(cfg Config, kind reduce.Kind, bytes int) float64 {
	key := [3]int{int(kind), bytes, cfg.World}
	t, ok := p[key]
	if !ok {
		switch kind {
		case reduce.AllReduce:
			algo := comm.Ring
			if cfg.Hierarchical {
				algo = comm.Hierarchical
			}
			t = cfg.Cluster.AllReduceSeconds(cfg.Backend, algo, bytes, cfg.World)
		case reduce.ReduceScatterV:
			t = cfg.Cluster.ReduceScatterSeconds(cfg.Backend, bytes, cfg.World)
		default:
			t = cfg.Cluster.AllGatherSeconds(cfg.Backend, bytes, cfg.World)
		}
		p[key] = t
	}
	return t
}

// Breakdown is the per-iteration latency decomposition of Fig 6.
type Breakdown struct {
	// ForwardSeconds is the forward-pass segment.
	ForwardSeconds float64
	// BackwardComputeSeconds is gradient computation.
	BackwardComputeSeconds float64
	// CommSeconds is the total collective busy time (Fig 6's
	// "communication" segment; with overlap much of it hides under
	// compute).
	CommSeconds float64
	// ExposedCommSeconds is the communication time NOT hidden by
	// computation — what actually lengthens the iteration.
	ExposedCommSeconds float64
	// OptimizerSeconds is the optimizer-step segment.
	OptimizerSeconds float64
	// TotalSeconds is the per-iteration latency.
	TotalSeconds float64
	// Buckets is the number of gradient buckets used.
	Buckets int
}

// BucketEvent is one collective of the simulated step, in submission
// order. Times are seconds from the start of the step.
type BucketEvent struct {
	// Kind is the collective.
	Kind reduce.Kind
	// Buckets are the buckets it carries (launch order): one, or a
	// launch group's for a sharded step's AllGatherV.
	Buckets []int
	// Bytes is the communicated size after compression.
	Bytes int
	// ReadySeconds is when the training clock submitted it.
	ReadySeconds float64
	// StartSeconds is when it began (>= ready, and >= the previous op's
	// end on the same communication stream).
	StartSeconds float64
	// EndSeconds is when it finished.
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
// per-collective schedule as well, for schedule-level analysis and tests.
func SimulateIterationTimeline(cfg Config) (Breakdown, []BucketEvent, error) {
	return simulate(cfg.withDefaults(), prices{}, nil, 0)
}

// simulate walks the step's schedule, pricing collectives through p; rng
// may be nil for determinism. iter places the 100-iteration spikes.
func simulate(cfg Config, p prices, rng *rand.Rand, iter int) (Breakdown, []BucketEvent, error) {
	n := len(cfg.ParamSizes)
	if n == 0 {
		return Breakdown{}, nil, fmt.Errorf("simnet: empty model")
	}
	total := 0
	for _, s := range cfg.ParamSizes {
		total += s
	}
	prof := hw.ProfileScaled(cfg.Device, total, cfg.ComputeIntensity)

	assign, err := reduce.AssignBuckets(cfg.ParamSizes, cfg.BucketCapBytes, 4, reduce.ReverseOrder(n))
	if err != nil {
		return Breakdown{}, nil, err
	}
	// Every parameter is its own unit: its own forward and backward visit.
	step, err := replica.Schedule(cfg.Strategy, assign, reduce.UnitBuckets(assign, slices.Repeat([]int{1}, n)), cfg.World)
	if err != nil {
		return Breakdown{}, nil, fmt.Errorf("simnet: Strategy: %w", err)
	}
	sharded := step.Count(reduce.AllReduce) == 0
	switch {
	case sharded && cfg.CommStreams > 1:
		return Breakdown{}, nil, fmt.Errorf("simnet: CommStreams %d: round-robin groups run no sharded collectives", cfg.CommStreams)
	case sharded && cfg.SyncEveryN > 1:
		return Breakdown{}, nil, fmt.Errorf("simnet: SyncEveryN %d: strategy %q has no no_sync", cfg.SyncEveryN, cfg.Strategy)
	case sharded && !cfg.Overlap:
		return Breakdown{}, nil, fmt.Errorf("simnet: Overlap false: strategy %q has no barrier baseline", cfg.Strategy)
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
			straggler = max(straggler, rng.NormFloat64()*0.015)
		}
		computeScale = max(0.9, 1+straggler+0.005*rng.NormFloat64())
		if iter > 0 && iter%100 == 0 {
			spike = prof.TotalSeconds() * (0.3 + 0.2*rng.Float64())
		}
	}

	optimizer := prof.OptimizerSeconds
	if sharded {
		// The sharded optimizer touches only the owned 1/world of the
		// state (a memory-bound pass, so it scales with elements).
		optimizer /= float64(cfg.World)
	}
	// Per phase — forward, backward, update — its compute time, and the
	// elements the segment at each point covers.
	base, scale := [3]float64{prof.ForwardSeconds, prof.BackwardSeconds, optimizer}, [3]float64{computeScale, computeScale, 1}
	phase := [3]float64{base[0] * scale[0], base[1] * scale[1], base[2] * scale[2]}
	backward := slices.Clone(cfg.ParamSizes)
	slices.Reverse(backward)
	covers := slices.Concat(cfg.ParamSizes, backward, assign.BucketElems)
	// upTo is when a phase's compute has covered cum elements, unstalled.
	upTo := func(ph, cum int) float64 {
		return base[ph] * (float64(cum) / float64(total)) * scale[ph]
	}

	// The walk. Each phase runs on its own clock from 0, so a step is the
	// sum of its phase spans as Fig 6 stacks them; what is in flight when
	// one ends carries into the next. The clocks are each collective's
	// end, then each stream's free time.
	var span [3]float64
	clocks := make([]float64, len(step)+cfg.CommStreams)
	ends, streams := clocks[:len(step)], clocks[len(step):]
	events := make([]BucketEvent, 0, len(step))
	commBusy, origin, t, cum, ph, next := 0.0, 0.0, 0.0, 0, 0, 0
	for point := 0; ; point++ {
		for ; next < len(step) && step[next].Submit == point; next++ {
			c := step[next]
			bytes := 4 * c.Elems
			if c.Kind != reduce.AllGatherV {
				bytes = int(float64(bytes) / cfg.CompressionRatio)
			}
			cost := p.of(cfg, c.Kind, bytes)
			commBusy += cost
			s := c.Buckets[0] % cfg.CommStreams
			start := max(t, streams[s])
			if !cfg.Overlap {
				start = max(phase[1], streams[s]) // barrier: communication begins after backward
			}
			ends[next], streams[s] = start+cost, start+cost
			events = append(events, BucketEvent{c.Kind, c.Buckets, bytes, origin + t, origin + start, origin + start + cost, s})
		}
		for i, c := range step[:next] {
			if c.Wait == point {
				t = max(t, ends[i])
			}
		}
		if point == n || point == 2*n || point == 2*n+assign.NumBuckets() {
			span[ph], origin = t, origin+t
			for i := range clocks {
				clocks[i] -= t
			}
			t, cum, ph = 0, 0, ph+1
			if ph == len(span) {
				break
			}
		}
		// Run segment point; without a stall t is exactly upTo(ph, cum).
		t -= upTo(ph, cum)
		cum += covers[point]
		t += upTo(ph, cum)
	}

	return Breakdown{
		ForwardSeconds:         phase[0],
		BackwardComputeSeconds: phase[1],
		CommSeconds:            commBusy,
		ExposedCommSeconds:     (span[0] - phase[0]) + (span[1] - phase[1]) + (span[2] - phase[2]),
		OptimizerSeconds:       optimizer,
		TotalSeconds:           span[0] + span[1] + span[2] + spike,
		Buckets:                assign.NumBuckets(),
	}, events, nil
}

// Run simulates iters training iterations and returns each iteration's
// latency in seconds, honouring SyncEveryN: skipped iterations carry no
// communication at all (DDP hooks disabled under no_sync).
func Run(cfg Config, iters int) ([]float64, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	latencies := make([]float64, 0, iters)
	p := prices{}
	for i := 0; i < iters; i++ {
		c := cfg
		if (i+1)%cfg.SyncEveryN != 0 {
			// Local-only iteration: same compute, no communication.
			c.World = 1
		}
		b, _, err := simulate(c, p, rng, i)
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
