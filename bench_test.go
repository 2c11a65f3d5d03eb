// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per experiment id; see ARCHITECTURE.md,
// "Substitutions and the experiment index"), plus
// real-execution micro-benchmarks of the collective stack and the DDP
// reducer, and ablation benches for the design choices that section
// calls out. Key quantities are attached via b.ReportMetric; run
// cmd/ddpbench for the full printed tables.
package repro_test

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/autograd"
	"repro/internal/bench"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/pipeline"
	"repro/internal/ps"
	"repro/internal/reduce"
	"repro/internal/tensor"
)

// --- Experiment benchmarks: one per paper table/figure ---

func BenchmarkFig2AllReduceCurves(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Fig2(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	nccl := bench.Fig2CommCurve(hw.NCCLLike)
	gloo := bench.Fig2CommCurve(hw.GlooLike)
	b.ReportMetric(nccl[0].TotalSeconds/nccl[len(nccl)-1].TotalSeconds, "nccl-1K/20M-ratio")
	b.ReportMetric(gloo[0].TotalSeconds/gloo[len(gloo)-1].TotalSeconds, "gloo-1K/20M-ratio")
}

func BenchmarkFig6LatencyBreakdown(b *testing.B) {
	b.ReportAllocs()
	var rows []bench.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.Fig6Breakdown()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.SpeedupPct, r.Model+"/"+r.Backend.String()+"-speedup-%")
	}
}

func BenchmarkFig7BucketSize16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.BucketSizeSweep(16, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8BucketSize32(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.BucketSizeSweep(32, 100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Scalability(b *testing.B) {
	b.ReportAllocs()
	var points []bench.ScalabilityPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig9Scalability(16)
		if err != nil {
			b.Fatal(err)
		}
	}
	var first, last float64
	for _, p := range points {
		if p.Model == "resnet50" && p.Backend == hw.NCCLLike {
			if p.World == 1 {
				first = p.MeanSeconds
			}
			if p.World == 256 {
				last = p.MeanSeconds
			}
		}
	}
	b.ReportMetric(256/(last/first), "resnet-nccl-scaling-factor")
}

func BenchmarkFig10SkipSync(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bench.Fig10SkipSync(16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Convergence(b *testing.B) {
	b.ReportAllocs()
	// Real distributed training (shortened); the full curves come from
	// `ddpbench -exp fig11`.
	for i := 0; i < b.N; i++ {
		curves, err := bench.Fig11Panel(2, 8, 0.02, 40)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(curves[0].FinalLoss, "sync1-final-loss")
			b.ReportMetric(curves[3].FinalLoss, "sync8-final-loss")
		}
	}
}

func BenchmarkFig12RoundRobin(b *testing.B) {
	b.ReportAllocs()
	var points []bench.RoundRobinPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = bench.Fig12RoundRobin()
		if err != nil {
			b.Fatal(err)
		}
	}
	var rr1, rr3 float64
	for _, p := range points {
		if p.Model == "bert-large" && p.Backend == hw.NCCLLike && p.World == 16 {
			switch p.Groups {
			case 1:
				rr1 = p.MedianSeconds
			case 3:
				rr3 = p.MedianSeconds
			}
		}
	}
	b.ReportMetric(100*(1-rr3/rr1), "bert-nccl-rr3-gain-%")
}

func BenchmarkTable1Taxonomy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Table1(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Real-execution micro-benchmarks of the substrate ---

// benchAllReduce measures a real in-process AllReduce of n float32s
// across 4 goroutine ranks.
func benchAllReduce(b *testing.B, algo comm.Algorithm, n int) {
	b.ReportAllocs()
	const world = 4
	groups := comm.NewInProcGroups(world, comm.Options{Algorithm: algo})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	bufs := make([][]float32, world)
	for r := range bufs {
		bufs[r] = make([]float32, n)
	}
	b.SetBytes(int64(4 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				if err := groups[rank].AllReduce(bufs[rank], comm.Sum).Wait(); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}

func BenchmarkRingAllReduce4K(b *testing.B)  { benchAllReduce(b, comm.Ring, 1024) }
func BenchmarkRingAllReduce4M(b *testing.B)  { benchAllReduce(b, comm.Ring, 1<<20) }
func BenchmarkTreeAllReduce4M(b *testing.B)  { benchAllReduce(b, comm.Tree, 1<<20) }
func BenchmarkNaiveAllReduce4M(b *testing.B) { benchAllReduce(b, comm.Naive, 1<<20) }

// BenchmarkDDPTrainingStep measures a full real DDP iteration (forward,
// backward with overlapped AllReduce, optimizer) on 4 goroutine ranks.
func BenchmarkDDPTrainingStep(b *testing.B) {
	b.ReportAllocs()
	const world = 4
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	type rankState struct {
		d   *ddp.DDP
		opt *optim.SGD
		x   *autograd.Variable
		y   *autograd.Variable
	}
	states := make([]*rankState, world)
	var initWG sync.WaitGroup
	for r := 0; r < world; r++ {
		initWG.Add(1)
		go func(rank int) {
			defer initWG.Done()
			rng := rand.New(rand.NewSource(int64(rank)))
			model := models.NewMLP(1, 64, 128, 10)
			d, err := ddp.New(model, groups[rank], ddp.Options{})
			if err != nil {
				b.Error(err)
				return
			}
			states[rank] = &rankState{
				d:   d,
				opt: optim.NewSGD(d.Parameters(), 0.01),
				x:   autograd.Constant(tensor.RandN(rng, 1, 16, 64)),
				y:   autograd.Constant(tensor.RandN(rng, 1, 16, 10)),
			}
		}(r)
	}
	initWG.Wait()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for r := 0; r < world; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				s := states[rank]
				out := s.d.Forward(s.x)
				if err := s.d.Backward(autograd.MSELoss(out, s.y)); err != nil {
					b.Error(err)
					return
				}
				s.opt.Step()
				s.opt.ZeroGrad()
			}(r)
		}
		wg.Wait()
	}
}

// BenchmarkBucketAssignment measures the reverse-order bucket packing on
// the full BERT-large profile (398 parameters).
func BenchmarkBucketAssignment(b *testing.B) {
	b.ReportAllocs()
	sizes := models.BERTLarge().Sizes()
	order := reduce.ReverseOrder(len(sizes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduce.AssignBuckets(sizes, 25<<20, 4, order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBackwardMLP isolates the autograd engine's backward pass.
func BenchmarkBackwardMLP(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	model := models.NewMLP(1, 128, 256, 10)
	x := autograd.Constant(tensor.RandN(rng, 1, 32, 128))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrad(model)
		out := model.Forward(x)
		autograd.Backward(autograd.Sum(out), nil)
	}
}

// --- Ablation benchmarks for the design choices ARCHITECTURE.md's
// experiment index calls out ---

// BenchmarkAblation regenerates the "ablation" experiment: overlap on
// and off, bucket packing order, gradient compression and round-robin
// streams, as `ddpbench -exp ablation` prints them.
func BenchmarkAblation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Ablation(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationFindUnused measures the real cost of the extra bitmap
// AllReduce that FindUnusedParameters adds per iteration.
func BenchmarkAblationFindUnused(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			const world = 4
			groups := comm.NewInProcGroups(world, comm.Options{})
			defer func() {
				for _, g := range groups {
					g.Close()
				}
			}()
			ddps := make([]*ddp.DDP, world)
			xs := make([]*autograd.Variable, world)
			var initWG sync.WaitGroup
			for r := 0; r < world; r++ {
				initWG.Add(1)
				go func(rank int) {
					defer initWG.Done()
					rng := rand.New(rand.NewSource(int64(rank)))
					model := models.NewMLP(1, 32, 64, 8)
					d, err := ddp.New(model, groups[rank], ddp.Options{FindUnusedParameters: mode.on})
					if err != nil {
						b.Error(err)
						return
					}
					ddps[rank] = d
					xs[rank] = autograd.Constant(tensor.RandN(rng, 1, 8, 32))
				}(r)
			}
			initWG.Wait()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for r := 0; r < world; r++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						d := ddps[rank]
						nn.ZeroGrad(d.Module())
						out := d.Forward(xs[rank])
						if err := d.Backward(autograd.Sum(out)); err != nil {
							b.Error(err)
						}
					}(r)
				}
				wg.Wait()
			}
		})
	}
}

// BenchmarkCheckpointedBackward compares recompute-in-backward against
// plain execution for a 3-layer segment.
func BenchmarkCheckpointedBackward(b *testing.B) {
	for _, mode := range []struct {
		name string
		ck   bool
	}{{"plain", false}, {"checkpointed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			rng := rand.New(rand.NewSource(1))
			body := nn.NewSequential(
				nn.NewLinear(rng, "a", 64, 128), nn.Tanh{},
				nn.NewLinear(rng, "b", 128, 64),
			)
			var m nn.Module = body
			if mode.ck {
				m = nn.NewCheckpointed(body)
			}
			x := autograd.Constant(tensor.RandN(rng, 1, 16, 64))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nn.ZeroGrad(m)
				autograd.Backward(autograd.Sum(m.Forward(x)), nil)
			}
		})
	}
}

// BenchmarkPipelineTrainBatch measures a 2-stage GPipe step with 4
// micro-batches.
func BenchmarkPipelineTrainBatch(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(2))
	p, err := pipeline.New(
		nn.NewSequential(nn.NewLinear(rng, "a", 32, 64), nn.Tanh{}),
		nn.NewSequential(nn.NewLinear(rng, "b", 64, 8)),
	)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.RandN(rng, 1, 32, 32)
	y := tensor.RandN(rng, 1, 32, 8)
	loss := func(out *autograd.Variable, target *tensor.Tensor) *autograd.Variable {
		return autograd.MSELoss(out, autograd.Constant(target))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ZeroGrad()
		if _, err := p.TrainBatch(x, y, 4, loss); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParameterServerStep measures one asynchronous pull/compute/
// push cycle against a local server.
func BenchmarkParameterServerStep(b *testing.B) {
	b.ReportAllocs()
	srv := ps.NewServer(models.NewMLP(1, 64, 128, 10), 0.01)
	worker := ps.NewWorker(models.NewMLP(1, 64, 128, 10), srv)
	rng := rand.New(rand.NewSource(3))
	x := autograd.Constant(tensor.RandN(rng, 1, 8, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := worker.Step(func() (float32, error) {
			out := worker.Model.Forward(x)
			autograd.Backward(autograd.Sum(out), nil)
			return 0, nil
		}); err != nil {
			b.Fatal(err)
		}
	}
}
