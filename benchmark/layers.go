package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/reduce"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/transport"
)

// baseline is what the local-replica run hands to later arithmetic.
type baseline struct{ backwardMS float64 }

// runBaseline is the plain single-worker run of the same task: the same
// goroutines each train the unwrapped model with no process group. What
// a distributed step costs beyond it is the price of distribution.
func runBaseline(w *workload, seed int64, pools [][]batch, res *result) (baseline, error) {
	c := newLocalCluster(w, seed, pools)
	if _, err := c.run(warmSteps, false); err != nil {
		return baseline{}, err
	}
	win, err := c.run(layerSteps, false)
	if err != nil {
		return baseline{}, err
	}
	res.attempted += win.steps
	b := baseline{backwardMS: median(c.perStep(win, func(s *stepRecord) int64 { return s.bwdEnd - s.fwdEnd }))}
	res.values["nn.forward_ms"] = median(c.perStep(win, func(s *stepRecord) int64 { return s.fwdEnd - s.start }))
	res.values["autograd.backward_ms"] = b.backwardMS
	res.values["autograd.alloc_mb_per_step"] = allocMBPerStep(win)
	res.values["local.step_ms_p50"] = median(c.stepTimes(win))
	res.notes = append(res.notes, fmt.Sprintf("local baseline: %d steps", win.steps))
	return b, nil
}

// sample times fn ladderReps times and returns the median in
// milliseconds and the megabytes allocated per call, whole process.
func sample(fn func() error) (ms, allocMB float64, err error) {
	times := make([]float64, ladderReps)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := range times {
		begin := time.Now()
		if err := fn(); err != nil {
			return 0, 0, err
		}
		times[i] = float64(time.Since(begin)) * msPerNS
	}
	runtime.ReadMemStats(&m1)
	return median(times), float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / ladderReps, nil
}

// Ladder shapes for the tensor rung: the compute workload's hidden
// layer, [64,512] x [512,512].
const ladM, ladK, ladN = 64, 512, 512

// runLadder measures each layer alone, by calling its public functions
// at this workload's sizes while nothing else runs.
func runLadder(w *workload, res *result) error {
	// tensor: the three MatMul kernels a Linear layer's forward and
	// backward use.
	rng := rand.New(rand.NewSource(1))
	a, b := tensor.RandN(rng, 1, ladM, ladK), tensor.RandN(rng, 1, ladK, ladN)
	g := tensor.RandN(rng, 1, ladM, ladN)
	for _, k := range []struct {
		name string
		fn   func()
	}{
		{"tensor.matmul_ns_per_mac", func() { tensor.MatMul(a, b) }},
		{"tensor.matmul_transa_ns_per_mac", func() { tensor.MatMulTransA(a, g) }},
		{"tensor.matmul_transb_ns_per_mac", func() { tensor.MatMulTransB(g, b) }},
	} {
		ms, _, _ := sample(func() error { k.fn(); return nil })
		res.values[k.name] = ms * 1e6 / (ladM * ladK * ladN)
	}

	// reduce: one engine cycle over this model's parameters with a
	// collective that costs nothing, leaving reset, copy-in, the launch
	// bookkeeping and the wait.
	params := w.model(1).Parameters()
	sizes := make([]int, len(params))
	grads := make([][]float32, len(params))
	for i, p := range params {
		sizes[i] = p.Value.Size()
		grads[i] = make([]float32, sizes[i])
	}
	engine, err := reduce.NewEngine(reduce.Config{
		Sizes:  sizes,
		Launch: func(int, []float32, []float32) comm.Work { return comm.CompletedWork(nil) },
	})
	if err != nil {
		return err
	}
	assign, err := reduce.AssignBuckets(sizes, w.bucketCap, 4, reduce.ReverseOrder(len(sizes)))
	if err != nil {
		return err
	}
	engine.Install(assign)
	res.values["reduce.engine_cycle_ms"], res.values["reduce.engine_cycle_alloc_mb"], err = sample(func() error {
		engine.Reset()
		for i := len(sizes) - 1; i >= 0; i-- {
			engine.CopyIn(i, grads[i])
			engine.MarkReady(i)
		}
		return engine.WaitAll(nil)
	})
	if err != nil {
		return err
	}

	largest := 0
	for _, n := range assign.BucketElems {
		largest = max(largest, n)
	}
	if err := commLadder(w, largest, res); err != nil {
		return err
	}
	return transportLadder(w, res)
}

// commLadder times each collective the workloads use on this
// workload's largest bucket, over this workload's transport.
func commLadder(w *workload, elems int, res *result) error {
	c := &cluster{w: w}
	if err := buildGroups(w, false, c); err != nil {
		return err
	}
	defer c.close()
	bufs := make([][]float32, world)
	for r := range bufs {
		bufs[r] = make([]float32, elems)
		for i := range bufs[r] {
			bufs[r][i] = float32(i%97) * 1e-3
		}
	}
	// Every rank issues the same collective; a sample ends when the
	// last rank's Wait returns.
	collective := func(launch func(g comm.ShardedGroup, data []float32) comm.Work) (float64, float64, error) {
		return sample(func() error {
			return eachRank(func(r int) error {
				return launch(c.groups[r].(comm.ShardedGroup), bufs[r]).Wait()
			})
		})
	}
	var err error
	if res.values["comm.allreduce_ms"], res.values["comm.allreduce_alloc_mb"], err = collective(
		func(g comm.ShardedGroup, d []float32) comm.Work { return g.AllReduce(d, comm.Avg) }); err != nil {
		return err
	}
	if res.values["comm.reduce_scatter_v_ms"], _, err = collective(
		func(g comm.ShardedGroup, d []float32) comm.Work { return g.ReduceScatterV(d, comm.Avg) }); err != nil {
		return err
	}
	if res.values["comm.all_gather_v_ms"], _, err = collective(
		func(g comm.ShardedGroup, d []float32) comm.Work { return g.AllGatherV(d) }); err != nil {
		return err
	}
	res.values["comm.fp16_allreduce_ms"], _, err = collective(
		func(g comm.ShardedGroup, d []float32) comm.Work {
			return comm.CompressedAllReduce(g, d, comm.Avg, comm.Float16Codec{}, nil)
		})
	return err
}

// transportLadder sends a 1 Mi-element frame to the peer and back over
// this workload's kind of mesh.
func transportLadder(w *workload, res *result) error {
	meshes := make([]transport.Mesh, world)
	switch w.transport {
	case inProc:
		meshes = transport.NewInProcMeshes(world)
	case shapedLink:
		for r, m := range newShapedMeshes(transport.NewInProcMeshes(world)) {
			meshes[r] = m
		}
	case tcpLoopback:
		st := store.NewInMem(30 * time.Second)
		defer st.Close()
		if err := eachRank(func(r int) (err error) {
			meshes[r], err = transport.NewTCPMesh(r, world, st, "ladder")
			return err
		}); err != nil {
			return err
		}
	}
	defer func() {
		for _, m := range meshes {
			if m != nil {
				_ = m.Close() // the measurement is over; nothing depends on the close
			}
		}
	}()
	frame := make([]float32, 1<<20)
	var err error
	res.values["transport.pingpong_1m_ms"], res.values["transport.pingpong_1m_alloc_mb"], err = sample(func() error {
		return eachRank(func(r int) error {
			if r == 0 {
				if err := meshes[0].Send(1, 7, frame); err != nil {
					return err
				}
				_, err := meshes[0].Recv(1, 7)
				return err
			}
			got, err := meshes[1].Recv(0, 7)
			if err != nil {
				return err
			}
			return meshes[1].Send(0, 7, got)
		})
	})
	return err
}

// traceStats is what the spans of a traced window add up to. Per-step
// values are means over the window; byte and frame counts are summed
// over ranks (so they compare with wire_bytes_per_step), times are per
// rank.
type traceStats struct {
	calls, elems                    map[string]float64 // per rank and step, by op
	busyMS, exposedMS, fwdExposedMS float64
	bwdExposedMS, hiddenFrac        float64
	sendMS, recvMS, holdMS          float64
	totalFrames, totalBytes         float64 // whole window, all ranks
	steps                           float64
	err                             error
}

// tcpFrameHeader is the header the TCP mesh puts on every frame (see
// the wire format in the transport package's documentation); the
// program's byte counters include it, the decorator sees payloads.
const tcpFrameHeader = 12

var reportedOps = []string{opAllReduce, opReduceScatterV, opAllGatherV, opCompressed, opBroadcast}

func isComm(name string) bool { return strings.HasPrefix(name, "comm.") }

func analyzeTrace(c *cluster, win window) traceStats {
	ts := traceStats{calls: map[string]float64{}, elems: map[string]float64{}, steps: float64(win.steps)}
	spans := c.rec.finished()
	if d := c.rec.dropped.Load(); d > 0 {
		ts.err = fmt.Errorf("%d spans dropped: the span buffer is too small for this window", d)
	}
	perRankStep := float64(world * win.steps)

	// reduces[rank][step] counts the gradient collectives of that step.
	reduces := make([][]int, world)
	for r := range reduces {
		reduces[r] = make([]int, win.steps)
	}
	byRank := make([][]span, world) // comm spans in launch order
	var sendNS, recvNS, holdNS int64
	for _, s := range spans {
		if s.Step < 0 || int(s.Step) >= win.steps {
			continue
		}
		if s.EndNS == 0 && ts.err == nil {
			ts.err = fmt.Errorf("span %d (%s) was never finished", s.ID, s.Name)
		}
		switch {
		case isComm(s.Name):
			ts.calls[s.Name]++
			ts.elems[s.Name] += float64(s.N)
			byRank[s.Rank] = append(byRank[s.Rank], s)
			if s.Name == opAllReduce || s.Name == opCompressed || s.Name == opReduceScatterV {
				reduces[s.Rank][s.Step]++
			}
		case s.Name == spSend:
			ts.totalFrames++
			ts.totalBytes += float64(s.N)
			sendNS += s.EndNS - s.StartNS
		case s.Name == spRecv:
			recvNS += s.EndNS - s.StartNS
		case s.Name == spHold:
			holdNS += s.EndNS - s.StartNS
		}
	}
	if c.w.transport == tcpLoopback {
		ts.totalBytes += tcpFrameHeader * ts.totalFrames
	}
	for op := range ts.calls {
		ts.calls[op] /= perRankStep
		ts.elems[op] /= perRankStep
	}
	ts.sendMS = float64(sendNS) * msPerNS / perRankStep
	ts.recvMS = float64(recvNS) * msPerNS / perRankStep
	ts.holdMS = float64(holdNS) * msPerNS / perRankStep

	// Busy time: a group runs collectives one at a time, so a
	// collective executes from its launch, or from the previous one's
	// completion if that is later, until it is done. Summing launch to
	// done instead would count time spent queued behind the previous
	// collective once per queued collective.
	var busyNS int64
	var busy []float64
	for _, list := range byRank {
		sort.Slice(list, func(i, j int) bool { return list[i].ID < list[j].ID })
		perStep := make([]int64, win.steps)
		var prevEnd int64
		for _, s := range list {
			perStep[s.Step] += s.EndNS - max(s.StartNS, prevEnd)
			prevEnd = s.EndNS
		}
		for _, ns := range perStep {
			busyNS += ns
			busy = append(busy, float64(ns)*msPerNS)
		}
	}
	ts.busyMS = median(busy)

	var fwd, bwd, all []float64
	var exposedNS int64
	for _, t := range c.traces {
		for i := 0; i < win.steps; i++ {
			f, b := t.waitNS[phForward][i], t.waitNS[phBackward][i]
			total := f + b + t.waitNS[phOptimizer][i] + t.waitNS[phNone][i]
			exposedNS += total
			fwd = append(fwd, float64(f)*msPerNS)
			bwd = append(bwd, float64(b)*msPerNS)
			all = append(all, float64(total)*msPerNS)
		}
	}
	ts.exposedMS, ts.fwdExposedMS, ts.bwdExposedMS = median(all), median(fwd), median(bwd)
	if busyNS > 0 {
		ts.hiddenFrac = min(1, max(0, 1-float64(exposedNS)/float64(busyNS)))
	}

	if ts.err == nil {
		want := c.ranks[0].buckets
		for r := range reduces {
			for step, got := range reduces[r] {
				if got != want {
					ts.err = fmt.Errorf("rank %d step %d launched %d gradient collectives for %d buckets", r, step, got, want)
				}
			}
		}
	}
	return ts
}

func (ts traceStats) report(res *result) {
	for _, op := range reportedOps {
		res.values["comm.calls_per_step."+op[5:]] = ts.calls[op]
		res.values["comm.elems_per_step."+op[5:]] = ts.elems[op]
	}
	res.values["comm.busy_ms_per_step"] = ts.busyMS
	res.values["comm.exposed_wait_ms"] = ts.exposedMS
	res.values["comm.fwd_exposed_wait_ms"] = ts.fwdExposedMS
	res.values["comm.hidden_frac"] = ts.hiddenFrac
	res.values["transport.frames_per_step"] = ts.totalFrames / ts.steps
	res.values["transport.bytes_per_step"] = ts.totalBytes / ts.steps
	res.values["transport.send_ms_per_step"] = ts.sendMS
	res.values["transport.recv_ms_per_step"] = ts.recvMS
	res.values["link.hold_ms_per_step"] = ts.holdMS
}
