package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/store"
	"repro/internal/transport"
)

// stepRecord is one rank's timestamps for one step, in nanoseconds
// since the cluster's base time, the step's training loss, and how long
// the calibration kernel took right after the step. Records live in a
// slice allocated before the timed window, so the loop itself allocates
// nothing.
type stepRecord struct {
	start, fwdEnd, bwdEnd, end int64
	calib                      int64
	loss                       float32
}

// rankState is one goroutine rank: its replica, the wrapper under test
// and its batch pool. forward and backward hide whether the replica is
// wrapped by ddp, by fsdp, or (the local baseline) by nothing.
type rankState struct {
	model    nn.Module
	fsdp     *fsdp.FSDP
	buckets  int
	opt      *optim.SGD // nil for fsdp, whose Backward fuses the step
	forward  func(*autograd.Variable) *autograd.Variable
	backward func(*autograd.Variable) error
	pool     []batch
	recs     []stepRecord
	cal      *calibrator
}

// trainStep runs one training step on batch i of the pool and fills
// rec. t is nil outside a traced window, where step is the window's own
// step index.
func (r *rankState) trainStep(i int, base time.Time, rec *stepRecord, t *rankTrace, step int) error {
	b := r.pool[i%len(r.pool)]
	t.beginStep(step)
	rec.start = int64(time.Since(base))
	t.beginPhase(phForward)
	loss := autograd.MSELoss(r.forward(b.x), b.y)
	t.endPhase()
	rec.fwdEnd = int64(time.Since(base))
	t.beginPhase(phBackward)
	err := r.backward(loss)
	t.endPhase()
	rec.bwdEnd = int64(time.Since(base))
	t.beginPhase(phOptimizer)
	if r.opt != nil && err == nil {
		r.opt.Step()
		r.opt.ZeroGrad()
	}
	t.endPhase()
	rec.end = int64(time.Since(base))
	t.endStep()
	rec.loss = loss.Value.Item()
	return err
}

// cluster is one built training job: world ranks over one transport.
type cluster struct {
	w      *workload
	base   time.Time
	groups []comm.ProcessGroup
	shaped []*shapedMesh // shaped workloads only
	store  *store.InMem  // TCP rendezvous; lives as long as the meshes
	rec    *recorder     // traced clusters only
	traces []*rankTrace
	ranks  []*rankState
	done   int // steps run so far; indexes the batch pools
	// firstLoss is the rank-mean loss of the very first training step.
	firstLoss float64
}

// buildGroups constructs the process groups. Untraced in-proc and TCP
// clusters use the library's own constructors unwrapped, so a fast path
// a later change adds inside them is exercised.
func buildGroups(w *workload, traced bool, c *cluster) error {
	opts := comm.Options{Algorithm: comm.Ring}
	if traced {
		c.rec = newRecorder()
		c.traces = make([]*rankTrace, world)
		for r := range c.traces {
			c.traces[r] = newRankTrace(c.rec, r)
		}
	}
	wrap := func(r int, m transport.Mesh) comm.ProcessGroup {
		if !traced {
			return comm.NewGroup(m, opts)
		}
		return newTracedGroup(comm.NewGroup(newTracedMesh(m, c.traces[r]), opts), c.traces[r])
	}
	c.groups = make([]comm.ProcessGroup, world)
	switch w.transport {
	case inProc:
		if !traced {
			c.groups = comm.NewInProcGroups(world, opts)
			return nil
		}
		for r, m := range transport.NewInProcMeshes(world) {
			c.groups[r] = wrap(r, m)
		}
	case shapedLink:
		c.shaped = newShapedMeshes(transport.NewInProcMeshes(world))
		for r, m := range c.shaped {
			c.groups[r] = wrap(r, m)
		}
	case tcpLoopback:
		// Ranks rendezvous through the store, so they must build
		// concurrently.
		st := store.NewInMem(30 * time.Second)
		c.store = st
		return eachRank(func(r int) error {
			var err error
			if !traced {
				c.groups[r], err = comm.NewTCPGroup(r, world, st, "bench", opts)
				return err
			}
			m, err := transport.NewTCPMesh(r, world, st, "pg/bench")
			if err == nil {
				c.groups[r] = wrap(r, m)
			}
			return err
		})
	}
	return nil
}

// eachRank runs fn once per rank on its own goroutine and returns the
// first error.
func eachRank(fn func(rank int) error) error {
	errs := make([]error, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[r] = fn(r)
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return nil
}

// newRank builds one rank's replica and wraps it for the workload's
// strategy (the constructor broadcasts rank 0's state).
func newRank(w *workload, seed int64, pg comm.ProcessGroup, pool []batch) (*rankState, error) {
	r := &rankState{model: w.model(seed), pool: pool, cal: newCalibrator()}
	switch w.strategy {
	case stratDDP:
		d, err := ddp.New(r.model, pg, ddp.Options{BucketCapBytes: w.bucketCap, NewCodec: w.codec})
		if err != nil {
			return nil, err
		}
		r.forward, r.backward, r.buckets = d.Forward, d.Backward, d.NumBuckets()
		r.opt = optim.NewSGD(d.Parameters(), lr)
		r.opt.Momentum = momentum
	case stratZeRO3:
		f, err := fsdp.New(r.model, pg, fsdp.Options{
			Strategy: fsdp.ZeRO3, BucketCapBytes: w.bucketCap, LR: lr, Momentum: momentum, NewCodec: w.codec,
		})
		if err != nil {
			return nil, err
		}
		r.fsdp = f
		r.forward, r.backward, r.buckets = f.Forward, f.Backward, f.NumBuckets()
	}
	return r, nil
}

// newLocalRank builds the plain single-worker replica of the baseline:
// no wrapper, no process group.
func newLocalRank(w *workload, seed int64, pool []batch) *rankState {
	r := &rankState{model: w.model(seed), pool: pool, cal: newCalibrator()}
	r.forward = r.model.Forward
	r.backward = func(loss *autograd.Variable) error {
		autograd.Backward(loss, nil)
		return nil
	}
	r.opt = optim.NewSGD(r.model.Parameters(), lr)
	r.opt.Momentum = momentum
	return r
}

// buildCluster is what setup_s times: group construction, model
// initialisation, the wrapper constructor and the first training step.
func buildCluster(w *workload, seed int64, pools [][]batch, traced bool) (*cluster, error) {
	c := &cluster{w: w, base: time.Now(), ranks: make([]*rankState, world)}
	if err := buildGroups(w, traced, c); err != nil {
		return nil, err
	}
	err := c.guarded(func(r int) error {
		rank, err := newRank(w, seed, c.groups[r], pools[r])
		if err != nil {
			return err
		}
		rank.recs = make([]stepRecord, 1)
		c.ranks[r] = rank
		return rank.trainStep(0, c.base, &rank.recs[0], nil, 0)
	})
	if err != nil {
		c.close()
		return nil, err
	}
	c.done = 1
	for _, r := range c.ranks {
		c.firstLoss += float64(r.recs[0].loss) / world
	}
	return c, nil
}

// newLocalCluster builds the baseline's ranks: same goroutines, same
// models and batches, no communication.
func newLocalCluster(w *workload, seed int64, pools [][]batch) *cluster {
	c := &cluster{w: w, base: time.Now(), ranks: make([]*rankState, world)}
	for r := range c.ranks {
		c.ranks[r] = newLocalRank(w, seed, pools[r])
	}
	return c
}

// guarded runs fn on every rank, turning a panic into an error and
// aborting the groups on the first failure so that peers blocked in a
// collective return instead of hanging.
func (c *cluster) guarded(fn func(rank int) error) error {
	var abort sync.Once
	return eachRank(func(r int) (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
			if err != nil {
				abort.Do(c.abort)
			}
		}()
		return fn(r)
	})
}

func (c *cluster) abort() {
	for _, g := range c.groups {
		if g != nil {
			_ = comm.AbortGroup(g) // the failure being reported is the one that led here
		}
	}
}

func (c *cluster) close() {
	for _, g := range c.groups {
		if g != nil {
			_ = g.Close() // nothing is in flight; a close error changes no result
		}
	}
	if c.store != nil {
		_ = c.store.Close()
	}
}

// window is one measured stretch of steps.
type window struct {
	first, steps int
	wall, cpu    time.Duration // cpu: process CPU time, all threads
	mem0, mem1   runtime.MemStats
	wire0, wire1 wireCounters // the program's transport counters
	link0, link1 wireCounters // the shaped decorators' own counts
}

// run executes n steps in a closed loop: each rank starts step i+1 when
// its step i and the calibration kernel after it return, and the
// collectives keep the ranks in lock-step.
func (c *cluster) run(n int, traceSteps bool) (window, error) {
	for _, r := range c.ranks {
		if len(r.recs) < n {
			r.recs = make([]stepRecord, n)
		}
	}
	if traceSteps {
		for _, t := range c.traces {
			t.resetWaits(n)
		}
	}
	win := window{first: c.done, steps: n}
	runtime.GC()
	runtime.ReadMemStats(&win.mem0)
	win.wire0, win.link0 = readWireCounters(), c.shapedCounts()
	begin, cpu0 := time.Now(), processCPU()
	err := c.guarded(func(rank int) error {
		r := c.ranks[rank]
		var t *rankTrace
		if traceSteps {
			t = c.traces[rank]
		}
		for i := 0; i < n; i++ {
			if err := r.trainStep(c.done+i, c.base, &r.recs[i], t, i); err != nil {
				return fmt.Errorf("step %d: %w", c.done+i, err)
			}
			r.recs[i].calib = r.cal.run()
		}
		return nil
	})
	win.wall, win.cpu = time.Since(begin), processCPU()-cpu0
	win.wire1, win.link1 = readWireCounters(), c.shapedCounts()
	runtime.ReadMemStats(&win.mem1)
	if err != nil {
		return win, err
	}
	c.done += n
	return win, nil
}

// wireCounters is a snapshot of the program's own transport counters,
// summed over link labels.
type wireCounters struct{ bytes, frames float64 }

func (a wireCounters) sub(b wireCounters) wireCounters {
	return wireCounters{a.bytes - b.bytes, a.frames - b.frames}
}

var (
	progBytesSent  = metrics.Default().CounterVec("transport_bytes_sent_total", "", "link")
	progFramesSent = metrics.Default().CounterVec("transport_frames_sent_total", "", "link")
)

func readWireCounters() wireCounters {
	var c wireCounters
	for _, link := range []string{"local", "cross"} {
		c.bytes += progBytesSent.With(link).Value()
		c.frames += progFramesSent.With(link).Value()
	}
	return c
}

// shapedCounts sums the shaped decorators' own byte and frame counts.
func (c *cluster) shapedCounts() wireCounters {
	var s wireCounters
	for _, m := range c.shaped {
		s.bytes += float64(m.bytesSent.Load())
		s.frames += float64(m.framesSent.Load())
	}
	return s
}

// stateBytes is the persistent parameter plus optimizer-state bytes
// resident on rank 0: what fsdp shards and ddp replicates.
func (c *cluster) stateBytes() int {
	if f := c.ranks[0].fsdp; f != nil {
		return f.ShardBytes()
	}
	return 2 * 4 * nn.NumParams(c.ranks[0].model)
}

// finalParams gathers every rank's full parameters (materialising
// ZeRO-3 shards, a collective all ranks enter together).
func (c *cluster) finalParams() ([][]float32, error) {
	out := make([][]float32, world)
	err := c.guarded(func(r int) error {
		if f := c.ranks[r].fsdp; f != nil {
			if err := f.Materialize(); err != nil {
				return err
			}
		}
		for _, p := range c.ranks[r].model.Parameters() {
			out[r] = append(out[r], p.Value.Data()...)
		}
		return nil
	})
	return out, err
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// checkReplicas fails unless every rank ends with bitwise identical
// parameters.
func (c *cluster) checkReplicas() error {
	params, err := c.finalParams()
	if err != nil {
		return err
	}
	for r := 1; r < world; r++ {
		if !sameBits(params[0], params[r]) {
			return fmt.Errorf("rank %d's final parameters differ from rank 0's", r)
		}
	}
	return nil
}

// checkLosses fails on a non-finite loss and, once the window is long
// enough to compare whole passes over the batch pool, on a loss that did
// not fall: the mean over the last pass must be below the mean over the
// first.
func (c *cluster) checkLosses(win window) error {
	for _, r := range c.ranks {
		for i := 0; i < win.steps; i++ {
			if l := float64(r.recs[i].loss); math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("non-finite loss at step %d", win.first+i)
			}
		}
	}
	if win.steps < 2*poolSize {
		return nil
	}
	first, last := c.meanLoss(0, poolSize), c.meanLoss(win.steps-poolSize, win.steps)
	if !(last < first) {
		return fmt.Errorf("loss did not fall: %.6g over the first pool pass, %.6g over the last", first, last)
	}
	return nil
}

// meanLoss is the rank-mean training loss over steps [lo, hi) of the
// last window.
func (c *cluster) meanLoss(lo, hi int) float64 {
	var sum float64
	for _, r := range c.ranks {
		for i := lo; i < hi; i++ {
			sum += float64(r.recs[i].loss)
		}
	}
	return sum / float64(world*(hi-lo))
}

// checkZeRO3MatchesDDP trains the workload's model under ddp and under
// ZeRO-3 from the same seed over plain in-proc groups (the link model
// changes timing, not arithmetic) and fails unless the final parameters
// agree bitwise.
func checkZeRO3MatchesDDP(w *workload, seed int64, pools [][]batch, steps int) error {
	var ref []float32
	for _, strategy := range []strategyKind{stratDDP, stratZeRO3} {
		variant := *w
		variant.transport, variant.strategy = inProc, strategy
		c, err := buildCluster(&variant, seed, pools, false)
		if err != nil {
			return err
		}
		_, err = c.run(steps, false)
		var params [][]float32
		if err == nil {
			params, err = c.finalParams()
		}
		c.close()
		if err != nil {
			return fmt.Errorf("%s: %w", strategy, err)
		}
		if ref == nil {
			ref = params[0]
		} else if !sameBits(ref, params[0]) {
			return errors.New("zero3 final parameters differ from ddp's on the same seed")
		}
	}
	return nil
}
