package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/fsdp"
)

// result is what one run of one workload reports.
type result struct {
	workload  string
	values    map[string]float64
	attempted int
	failures  []string // failed checks; any one marks every step failed
	notes     []string // sample counts and other context for the text report
}

func newResult(w *workload) *result {
	return &result{workload: w.name, values: map[string]float64{}}
}

func (r *result) check(what string, err error) {
	if err != nil {
		r.failures = append(r.failures, what+": "+err.Error())
	}
}

func (r *result) failed() int {
	if len(r.failures) > 0 {
		return r.attempted
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation; it
// sorts xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

const msPerNS = 1e-6

// perStep collects f over every (rank, step) of the last window.
func (c *cluster) perStep(win window, f func(*stepRecord) int64) []float64 {
	out := make([]float64, 0, world*win.steps)
	for _, r := range c.ranks {
		for i := 0; i < win.steps; i++ {
			out = append(out, float64(f(&r.recs[i]))*msPerNS)
		}
	}
	return out
}

// stepTimes is, per step, the longest duration any rank took: a
// synchronous step is over when its slowest rank is.
func (c *cluster) stepTimes(win window) []float64 {
	out := make([]float64, win.steps)
	for i := range out {
		for _, r := range c.ranks {
			out[i] = max(out[i], float64(r.recs[i].end-r.recs[i].start)*msPerNS)
		}
	}
	return out
}

// rankSkew is, per step, how far apart the ranks started it.
func (c *cluster) rankSkew(win window) []float64 {
	out := make([]float64, win.steps)
	for i := range out {
		lo, hi := c.ranks[0].recs[i].start, c.ranks[0].recs[i].start
		for _, r := range c.ranks[1:] {
			lo, hi = min(lo, r.recs[i].start), max(hi, r.recs[i].start)
		}
		out[i] = float64(hi-lo) * msPerNS
	}
	return out
}

// blockThroughput is the median, over consecutive blocks of
// throughputBlock steps, of samples per second: long enough a block to
// hold the costs that recur every few steps (a garbage collection), short
// enough that a disturbance from outside spoils a few blocks and not the
// median.
func blockThroughput(stepMS []float64, samplesPerStep int) float64 {
	var rates []float64
	for lo := 0; lo+throughputBlock <= len(stepMS); lo += throughputBlock {
		var ms float64
		for _, t := range stepMS[lo : lo+throughputBlock] {
			ms += t
		}
		rates = append(rates, float64(samplesPerStep*throughputBlock)*1e3/ms)
	}
	return median(rates)
}

func allocMBPerStep(win window) float64 {
	return float64(win.mem1.TotalAlloc-win.mem0.TotalAlloc) / 1e6 / float64(win.steps)
}

// runEndToEnd measures the end-to-end metrics with tracing off.
func runEndToEnd(w *workload, seed int64, steps int) (*result, error) {
	res := newResult(w)
	pools := makePools(w, seed, poolSize)

	// setup_s: the median of many cold builds, each brought to reference
	// speed by a calibration run right after it. One build takes a few
	// tens of milliseconds and varies by half of that, and the first
	// three or so of a process run up to twice as long while the heap
	// grows; the median of five still moved by 30% between runs.
	var c *cluster
	setups := make([]float64, setupRuns)
	for i := range setups {
		if c != nil {
			c.close()
		}
		runtime.GC()
		begin, cpu0 := time.Now(), processCPU()
		var err error
		if c, err = buildCluster(w, seed, pools, false); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := time.Since(begin), processCPU()-cpu0
		sp := newSpeed(wall, cpu, 0, 0, []float64{c.calibrate()})
		setups[i] = sp.correct([]float64{wall.Seconds()})[0]
	}
	defer c.close()

	if _, err := c.run(warmSteps, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	win, err := c.run(steps, false)
	if err != nil {
		return nil, err
	}
	res.attempted = win.steps
	wire := win.wire1.sub(win.wire0)
	// The two time metrics are at reference machine speed (calib.go).
	raw, sp := c.stepTimes(win), c.speedOf(win)
	times := sp.correct(raw)

	res.values["setup_s"] = median(append([]float64(nil), setups...))
	res.values["samples_per_s"] = blockThroughput(times, w.samplesPerStep())
	res.values["step_ms_p50"] = median(times)
	res.values["alloc_mb_per_step"] = allocMBPerStep(win)
	res.values["wire_bytes_per_step"] = wire.bytes / float64(steps)
	res.values["state_bytes_per_rank"] = float64(c.stateBytes())
	res.values["loss_final"] = c.meanLoss(max(0, win.steps-poolSize), win.steps)
	res.notes = append(res.notes,
		fmt.Sprintf("cold builds (s): %.4f", setups),
		fmt.Sprintf("timed steps %d in %.2f s; at reference speed: step p90 %.3f ms, max %.3f ms", win.steps, win.wall.Seconds(), quantile(times, 0.9), times[len(times)-1]),
		fmt.Sprintf("as measured: step p50 %.3f ms, %.1f samples/s; calibration kernel p50 %.4f ms (reference %.1f), busy share %.3f",
			median(raw), float64(w.samplesPerStep()*steps)/win.wall.Seconds(), median(append([]float64(nil), sp.kernelMS...)), calibRefNS*msPerNS, sp.busy),
		fmt.Sprintf("loss %.6g at the first step, %.6g at timed step %d", c.firstLoss, c.meanLoss(lossProbe, lossProbe+1), lossProbe))

	res.check("loss", c.checkLosses(win))
	res.check("replicas", c.checkReplicas())
	if w.transport == shapedLink {
		if link := win.link1.sub(win.link0); link != wire {
			res.check("shaped link", fmt.Errorf("decorator counted %v bytes in %v frames, the program %v in %v", link.bytes, link.frames, wire.bytes, wire.frames))
		}
	}
	if w.strategy == stratZeRO3 {
		res.check("zero3 vs ddp", checkZeRO3MatchesDDP(w, seed, pools, 8))
	}
	return res, nil
}

// runPerLayer measures the per-layer metrics: an untraced reference
// window of half the timed steps, the traced window right after it (so
// the two differ by the tracing and little else), then the local-replica
// baseline and the layer ladder, each on otherwise idle ranks.
func runPerLayer(w *workload, seed int64, steps int, traceOut string) (*result, error) {
	res := newResult(w)
	pools := makePools(w, seed, poolSize)

	ref, err := runReference(w, seed, pools, steps/2, res)
	if err != nil {
		return nil, err
	}
	bwdExposedMS, err := runTraced(w, seed, pools, ref, traceOut, res)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	base, err := runBaseline(w, seed, pools, res)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := runLadder(w, res); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	res.values["step.dist_overhead_ms"] = ref.stepP50 - res.values["local.step_ms_p50"]
	// What is left of the wrapper's backward once plain autograd and the
	// exposed wait are taken out: hooks, bucket copy-in and copy-out.
	res.values["reduce.overhead_ms"] = res.values["wrap.backward_ms"] - base.backwardMS - bwdExposedMS
	return res, nil
}

// reference is what the untraced window hands to the traced one.
type reference struct{ stepP50, wirePerStep float64 }

// runReference is the untraced window of a per-layer run: the runtime's
// view, the tail, the losses, and the step time the tracing overhead is
// measured against.
func runReference(w *workload, seed int64, pools [][]batch, n int, res *result) (reference, error) {
	c, err := buildCluster(w, seed, pools, false)
	if err != nil {
		return reference{}, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	if _, err := c.run(warmSteps, false); err != nil {
		return reference{}, fmt.Errorf("warm-up: %w", err)
	}
	win, err := c.run(n, false)
	if err != nil {
		return reference{}, err
	}
	steps := float64(win.steps)
	times := c.stepTimes(win)
	ref := reference{stepP50: median(times), wirePerStep: win.wire1.sub(win.wire0).bytes / steps}
	res.attempted += win.steps
	// Per-layer times are as measured; these three say what the machine
	// was doing meanwhile and what the end-to-end correction would use.
	sp := c.speedOf(win)
	res.values["calib.kernel_ms"] = median(sp.kernelMS)
	res.values["calib.busy_share"] = sp.busy
	res.values["step.raw_ms_p50"] = ref.stepP50
	res.values["step.p90_ms"] = quantile(times, 0.9)
	res.values["step.rank_skew_ms"] = median(c.rankSkew(win))
	res.values["go.allocs_per_step"] = float64(win.mem1.Mallocs-win.mem0.Mallocs) / steps
	res.values["go.gc_cycles_per_step"] = float64(win.mem1.NumGC-win.mem0.NumGC) / steps
	res.values["go.gc_pause_ms_per_step"] = float64(win.mem1.PauseTotalNs-win.mem0.PauseTotalNs) * msPerNS / steps
	res.values["train.loss_first"] = c.firstLoss
	res.values["train.loss_step32"] = c.meanLoss(lossProbe, lossProbe+1)
	res.values["train.loss_final"] = c.meanLoss(max(0, win.steps-poolSize), win.steps)
	res.notes = append(res.notes, fmt.Sprintf("untraced window: %d steps, p50 %.3f ms", win.steps, ref.stepP50))
	res.check("loss", c.checkLosses(win))
	res.check("replicas", c.checkReplicas())
	return ref, nil
}

// runTraced is the traced window: spans and counts at every layer
// boundary. It returns the exposed wait inside backward, which
// reduce.overhead_ms is derived from.
func runTraced(w *workload, seed int64, pools [][]batch, ref reference, traceOut string, res *result) (float64, error) {
	c, err := buildCluster(w, seed, pools, true)
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	defer c.close()
	if _, err := c.run(warmSteps, false); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	var before fsdp.Stats
	if f := c.ranks[0].fsdp; f != nil {
		before = f.Stats()
	}
	win, err := c.run(layerSteps, true)
	if err != nil {
		return 0, err
	}
	steps := float64(win.steps)
	res.attempted += win.steps
	tracedP50 := median(c.stepTimes(win))
	res.values["trace.overhead_frac"] = tracedP50/ref.stepP50 - 1
	res.notes = append(res.notes, fmt.Sprintf("traced window: %d steps, p50 %.3f ms, %d spans", win.steps, tracedP50, c.rec.next.Load()))

	res.values["wrap.forward_ms"] = median(c.perStep(win, func(s *stepRecord) int64 { return s.fwdEnd - s.start }))
	res.values["wrap.backward_ms"] = median(c.perStep(win, func(s *stepRecord) int64 { return s.bwdEnd - s.fwdEnd }))
	res.values["optim.step_ms"] = median(c.perStep(win, func(s *stepRecord) int64 { return s.end - s.bwdEnd }))
	res.values["reduce.buckets"] = float64(c.ranks[0].buckets)
	if f := c.ranks[0].fsdp; f != nil {
		st := f.Stats()
		res.values["fsdp.gathers_per_step"] = float64(st.Gathers-before.Gathers) / steps
		res.values["fsdp.reduces_per_step"] = float64(st.Reduces-before.Reduces) / steps
		res.values["fsdp.peak_param_bytes"] = float64(st.PeakParamBytes)
		res.values["fsdp.peak_grad_bytes"] = float64(st.PeakGradBytes)
	}

	ts := analyzeTrace(c, win)
	ts.report(res)
	wire := win.wire1.sub(win.wire0)
	res.check("trace", ts.err)
	if ts.totalBytes != wire.bytes || ts.totalFrames != wire.frames {
		res.check("traced mesh", fmt.Errorf("decorator counted %v bytes in %v frames, the program %v in %v", ts.totalBytes, ts.totalFrames, wire.bytes, wire.frames))
	}
	if wire.bytes/steps != ref.wirePerStep {
		res.check("wire bytes", fmt.Errorf("%v per traced step, %v per untraced step", wire.bytes/steps, ref.wirePerStep))
	}
	res.check("replicas (traced)", c.checkReplicas())
	if traceOut != "" {
		if err := c.rec.writeJSON(traceOut); err != nil {
			return 0, fmt.Errorf("writing trace: %w", err)
		}
	}
	return ts.bwdExposedMS, nil
}
