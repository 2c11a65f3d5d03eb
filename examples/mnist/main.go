// The mnist example trains a small CNN on the synthetic MNIST-like
// dataset across 4 goroutine ranks — the workload of the paper's Fig 11
// convergence study — and demonstrates the no_sync gradient-accumulation
// API (Section 3.2.4): the same model trained with sync-every-iteration
// and with 4-step accumulation, reporting losses and final accuracy.
//
//	go run ./examples/mnist
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/tensor"
)

const (
	world     = 4
	imageSize = 12
	classes   = 10
	batch     = 8
	iters     = 120
)

func main() {
	for _, syncEvery := range []int{1, 4} {
		acc, loss := train(syncEvery)
		fmt.Printf("sync every %d: final loss %.4f, eval accuracy %.1f%%\n", syncEvery, loss, 100*acc)
	}
}

func train(syncEvery int) (accuracy float64, finalLoss float32) {
	dataset := data.NewSynthetic(7, 2048, imageSize*imageSize, classes)
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()

	finals := make([]float32, world)
	accs := make([]float64, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			model := models.NewSmallCNN(3, 1, imageSize, classes)
			d, err := ddp.New(model, groups[rank], ddp.Options{})
			if err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
			opt := optim.NewSGD(d.Parameters(), 0.02)
			opt.Momentum = 0.9

			sampler, err := data.NewDistributedSampler(dataset.Len(), rank, world)
			if err != nil {
				log.Fatal(err)
			}
			loader, err := data.NewLoader(dataset, sampler, batch)
			if err != nil {
				log.Fatal(err)
			}

			for it := 0; it < iters; it++ {
				flat, labels := loader.Next()
				x := autograd.Constant(flat.Reshape(batch, 1, imageSize, imageSize))
				step := func() error {
					out := d.Forward(x)
					loss := autograd.CrossEntropyLoss(out, labels)
					finals[rank] = loss.Value.Item()
					return d.Backward(loss)
				}
				var err error
				if (it+1)%syncEvery == 0 {
					err = step()
				} else {
					err = d.NoSync(step)
				}
				if err != nil {
					log.Fatalf("rank %d iter %d: %v", rank, it, err)
				}
				if (it+1)%syncEvery == 0 {
					opt.Step()
					opt.ZeroGrad()
				}
				if rank == 0 && (it+1)%30 == 0 {
					fmt.Printf("  [sync=%d] iter %3d loss %.4f\n", syncEvery, it+1, finals[rank])
				}
			}
			accs[rank] = evaluate(d, dataset)
		}(rank)
	}
	wg.Wait()
	return accs[0], finals[0]
}

// evaluate switches to eval mode (BatchNorm running stats) and measures
// accuracy over a held-out slice of the dataset.
func evaluate(d *ddp.DDP, dataset *data.Synthetic) float64 {
	d.SetTraining(false)
	defer d.SetTraining(true)
	correct, total := 0, 0
	for i := 0; i < 256; i++ {
		vec, label := dataset.Sample(i)
		x := tensor.FromSlice(append([]float32(nil), vec...), 1, 1, imageSize, imageSize)
		out := d.Forward(autograd.Constant(x))
		if tensor.ArgMaxRows(out.Value)[0] == label {
			correct++
		}
		total++
	}
	return float64(correct) / float64(total)
}
