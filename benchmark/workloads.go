package main

import (
	"math/rand"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Load shape shared by every workload. These are constants, not knobs:
// a benchmark whose shape can be tuned per run stops being a baseline.
const (
	world      = 2  // goroutine ranks, one per core of the 2-core box
	poolSize   = 32 // pre-generated batches each rank cycles through
	warmSteps  = 5  // untimed steps between set-up and the timed window
	setupRuns  = 15 // cold builds whose median is setup_s
	lr         = 0.01
	momentum   = 0.9
	minTimed   = 150 // fewest timed steps of an end-to-end window
	layerSteps = 60  // steps of the traced window and of the local baseline
	lossProbe  = 32  // timed-step index of the deterministic loss probe
	ladderReps = 25  // samples per ladder rung (median reported)
	// throughputBlock is how many consecutive steps samples_per_s is
	// taken over before the median.
	throughputBlock = 16
)

type transportKind int

const (
	inProc transportKind = iota
	tcpLoopback
	shapedLink
)

func (k transportKind) String() string {
	return [...]string{"in-proc", "tcp-loopback", "shaped in-proc link"}[k]
}

type strategyKind int

const (
	stratDDP strategyKind = iota
	stratZeRO3
)

func (s strategyKind) String() string {
	return [...]string{"ddp", "fsdp zero3"}[s]
}

// workload is one row of the benchmark: a model, a per-rank batch, a
// bucket cap, a transport and a strategy. why is the one-line rationale
// BENCHMARK.json repeats. steps is the length of the timed window at the
// default --seconds: a fixed count, the same on every commit, so that
// counts per step and losses repeat exactly; it was sized to take about
// that long at the commit that added the benchmark. unlisted marks a
// workload the program runs but BENCHMARK.json does not list: the
// driver's time limit buys either six short windows or five longer ones,
// and longer windows are steadier (README, "Workloads").
type workload struct {
	name      string
	why       string
	steps     int
	unlisted  bool
	model     func(seed int64) nn.Module
	inCols    int // input row width
	batch     int // rows (or tokens) per rank per step
	bucketCap int
	transport transportKind
	strategy  strategyKind
	codec     func() comm.Codec
}

func wideMLP(seed int64) nn.Module      { return models.NewMLP(seed, 1024, 1024, 1024) }
func computeMLP(seed int64) nn.Module   { return models.NewMLP(seed, 256, 512, 10) }
func bertShaped(seed int64) nn.Module   { return models.NewTinyTransformer(seed, 128, 4, 512, 4) }
func fp16Codec() comm.Codec             { return comm.Float16Codec{} }
func (w *workload) samplesPerStep() int { return world * w.batch }

// timedSteps maps --seconds to the window's step count, once: the
// workload's own count scaled by seconds, never below minTimed.
func (w *workload) timedSteps(seconds int) int {
	return max(minTimed, w.steps*seconds/defaultSeconds)
}

var workloads = []*workload{
	{
		name:  "ddp_compute_inproc",
		steps: 400,
		why:   "Compute-bound: tensor MatMul and autograd are >90% of the step, comm <10%; the bypass workload for every comm or transport change.",
		model: computeMLP, inCols: 256, batch: 64, bucketCap: 25 << 20,
		transport: inProc, strategy: stratDDP,
	},
	{
		name:  "ddp_wide_inproc",
		steps: 360,
		why:   "Gradient-heavy: bucket copy-in/out, ring reduce, in-proc frame copies, optim.SGD and the allocator dominate; where an alloc-free data path must show.",
		model: wideMLP, inCols: 1024, batch: 2, bucketCap: 4 << 20,
		transport: inProc, strategy: stratDDP,
	},
	{
		name:  "ddp_wide_tcp",
		steps: 290, unlisted: true,
		why:   "Same comm schedules over the TCP transport (frame encode, write, read-into), the path multi-process users run; splits from the in-proc row when framing changes.",
		model: wideMLP, inCols: 1024, batch: 2, bucketCap: 4 << 20,
		transport: tcpLoopback, strategy: stratDDP,
	},
	{
		name:  "ddp_bert_shaped",
		steps: 270,
		why:   "The paper's core claim: comm is waiting on a 1 ms + 400 MB/s link, not CPU work, so bucketing, launch order and overlap decide the step.",
		model: bertShaped, inCols: 128, batch: 16, bucketCap: 1 << 20,
		transport: shapedLink, strategy: stratDDP,
	},
	{
		name:  "zero3_bert_shaped",
		steps: 200,
		why:   "Same reduce engine, comm used as ReduceScatterV plus per-bucket AllGatherV in forward and backward; forward gathers are exposed, so ZeRO-3 prefetch must show here.",
		model: bertShaped, inCols: 128, batch: 16, bucketCap: 1 << 20,
		transport: shapedLink, strategy: stratZeRO3,
	},
	{
		name:  "ddp_bert_shaped_fp16",
		steps: 200,
		why:   "Byte lanes and the compressed collective: wire bytes halve yet encode/decode cost makes the step slower at 400 MB/s; where codec fusion must show.",
		model: bertShaped, inCols: 128, batch: 16, bucketCap: 1 << 20,
		transport: shapedLink, strategy: stratDDP, codec: fp16Codec,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// batch is one pre-generated training batch: inputs and the frozen
// teacher's outputs for them, already wrapped as autograd constants so
// the timed loop allocates nothing of its own.
type batch struct {
	x, y *autograd.Variable
}

// makePools generates every rank's pool of n batches from the seed. The
// teacher has the workload's architecture but its own initialisation;
// regressing onto it makes the loss learnable, so a falling loss is a
// correctness check on the whole gradient path.
func makePools(w *workload, seed int64, n int) [][]batch {
	teacher := w.model(seed ^ 0x5eed5eed)
	pools := make([][]batch, world)
	for r := range pools {
		rng := rand.New(rand.NewSource(seed*1000003 + int64(r) + 1))
		pools[r] = make([]batch, n)
		for i := range pools[r] {
			x := tensor.RandN(rng, 1, w.batch, w.inCols)
			y := teacher.Forward(autograd.Constant(x)).Value.Clone()
			pools[r][i] = batch{x: autograd.Constant(x), y: autograd.Constant(y)}
		}
	}
	return pools
}
