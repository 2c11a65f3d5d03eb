// The paramserver example contrasts the two communication paradigms of
// the paper's Section 2.3: synchronized AllReduce data parallelism
// (DDP) versus the asynchronous P2P parameter server. Both train the
// same model on the same dataset with the same number of gradient
// computations; DDP's updates are mathematically equivalent to
// large-batch local training, while PS workers push gradients computed
// against stale parameters.
//
//	go run ./examples/paramserver
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
	"repro/internal/ps"
	"repro/internal/tensor"
)

const (
	world = 4
	iters = 100
	batch = 16
)

func main() {
	dataset := data.NewSynthetic(23, 2048, 24, 6)

	ddpAcc := trainDDP(dataset)
	psAcc := trainPS(dataset)

	fmt.Printf("\nafter %d iterations per worker on the same data:\n", iters)
	fmt.Printf("  DDP (synchronous AllReduce, %d optimizer steps):        accuracy %.1f%%\n", iters, 100*ddpAcc)
	fmt.Printf("  parameter server (async P2P push, %d server updates): accuracy %.1f%%\n", world*iters, 100*psAcc)
	fmt.Println("\nboth learn. DDP takes one synchronized step per iteration (lr scaled by the")
	fmt.Println("world size, the linear-scaling rule) and guarantees every replica equals")
	fmt.Println("sequential large-batch training; the asynchronous server applies world-times")
	fmt.Println("more, but stale, updates with no equivalence guarantee (Section 2.3).")
}

func trainDDP(dataset *data.Synthetic) float64 {
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	finals := make([]*ddp.DDP, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := models.NewMLP(3, dataset.Features(), 32, dataset.Classes())
			d, err := ddp.New(m, groups[rank], ddp.Options{})
			if err != nil {
				log.Fatal(err)
			}
			finals[rank] = d
			opt := optim.NewSGD(d.Parameters(), 0.03*world) // linear scaling rule
			loop(dataset, rank, func(x *tensor.Tensor, labels []int) {
				opt.ZeroGrad()
				out := d.Forward(autograd.Constant(x))
				if err := d.Backward(autograd.CrossEntropyLoss(out, labels)); err != nil {
					log.Fatal(err)
				}
				opt.Step()
			})
		}(rank)
	}
	wg.Wait()
	return evaluate(dataset, func(x *tensor.Tensor) *tensor.Tensor {
		return finals[0].Module().Forward(autograd.Constant(x)).Value
	})
}

func trainPS(dataset *data.Synthetic) float64 {
	srv := ps.NewServer(models.NewMLP(3, dataset.Features(), 32, dataset.Classes()), 0.03)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			worker := ps.NewWorker(models.NewMLP(3, dataset.Features(), 32, dataset.Classes()), srv)
			loop(dataset, rank, func(x *tensor.Tensor, labels []int) {
				if _, err := worker.Step(func() (float32, error) {
					out := worker.Model.Forward(autograd.Constant(x))
					loss := autograd.CrossEntropyLoss(out, labels)
					autograd.Backward(loss, nil)
					return loss.Value.Item(), nil
				}); err != nil {
					log.Fatal(err)
				}
			})
		}(rank)
	}
	wg.Wait()
	final := models.NewMLP(3, dataset.Features(), 32, dataset.Classes())
	if err := srv.Pull(final); err != nil {
		log.Fatal(err)
	}
	return evaluate(dataset, func(x *tensor.Tensor) *tensor.Tensor {
		return final.Forward(autograd.Constant(x)).Value
	})
}

func loop(dataset *data.Synthetic, rank int, step func(*tensor.Tensor, []int)) {
	sampler, err := data.NewDistributedSampler(dataset.Len(), rank, world)
	if err != nil {
		log.Fatal(err)
	}
	loader, err := data.NewLoader(dataset, sampler, batch)
	if err != nil {
		log.Fatal(err)
	}
	for it := 0; it < iters; it++ {
		step(loader.Next())
	}
}

func evaluate(dataset *data.Synthetic, predict func(*tensor.Tensor) *tensor.Tensor) float64 {
	correct := 0
	const n = 512
	for i := 0; i < n; i++ {
		vec, label := dataset.Sample(i)
		x := tensor.FromSlice(append([]float32(nil), vec...), 1, dataset.Features())
		if tensor.ArgMaxRows(predict(x))[0] == label {
			correct++
		}
	}
	return float64(correct) / n
}
