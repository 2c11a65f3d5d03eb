// The zero1 example contrasts DDP's replicated-optimizer design with
// the ZeRO-style sharded optimizer of the paper's Section 7: both train
// the same model on the same data to the same weights (sharding a
// momentum update is mathematically free), but the sharded optimizer
// keeps only 1/world of the momentum state per rank, trading DDP's
// single overlapped AllReduce for a ReduceScatter + AllGather per
// bucket. Both arms run the same loop over replica.Replica; the only
// difference is the one line that builds the replica (ddp.NewReplica
// vs fsdp.New with ZeRO2).
//
//	go run ./examples/zero1
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/fsdp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
)

const (
	world    = 4
	iters    = 60
	batch    = 16
	lr       = 0.05
	momentum = 0.9
)

func main() {
	dataset := data.NewSynthetic(17, 2048, 24, 6)

	fmt.Println("DDP + SGD:")
	ddpWeights, ddpStateBytes := train(dataset, func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, int, error) {
		opt := optim.NewSGD(m.Parameters(), lr)
		opt.Momentum = momentum
		r, err := ddp.NewReplica(m, pg, ddp.Options{}, opt)
		return r, 4 * nn.NumParams(m), err // full velocity on every rank
	})
	fmt.Println("ZeRO-2:")
	zeroWeights, zeroStateBytes := train(dataset, func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, int, error) {
		f, err := fsdp.New(m, pg, fsdp.Options{Strategy: fsdp.ZeRO2, LR: lr, Momentum: momentum})
		if err != nil {
			return nil, 0, err
		}
		return f, f.Stats().OptimizerBytes, nil
	})

	var maxDiff float32
	for i := range ddpWeights {
		if d := ddpWeights[i].MaxAbsDiff(zeroWeights[i]); d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Printf("\nmax |DDP - ZeRO| over all weights after %d iterations: %v\n", iters, maxDiff)
	fmt.Printf("optimizer state per rank: DDP %d bytes, ZeRO shard %d bytes (%.1fx smaller)\n",
		ddpStateBytes, zeroStateBytes, float64(ddpStateBytes)/float64(zeroStateBytes))
}

// train runs the one training loop on `world` goroutine ranks and
// returns rank 0's final weights and optimizer-state bytes. build is
// where an arm chooses its strategy.
func train(dataset *data.Synthetic, build func(nn.Module, comm.ProcessGroup) (replica.Replica, int, error)) ([]*tensor.Tensor, int) {
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	var weights []*tensor.Tensor
	var stateBytes int
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := models.NewMLP(33, dataset.Features(), 32, dataset.Classes())
			r, bytes, err := build(m, groups[rank])
			if err != nil {
				log.Fatal(err)
			}
			sampler, err := data.NewDistributedSampler(dataset.Len(), rank, world)
			if err != nil {
				log.Fatal(err)
			}
			loader, err := data.NewLoader(dataset, sampler, batch)
			if err != nil {
				log.Fatal(err)
			}
			loader.Reset(0)
			epoch := int64(0)
			for it := 0; it < iters; it++ {
				x, labels, ok := loader.Next()
				if !ok {
					epoch++
					loader.Reset(epoch)
					x, labels, _ = loader.Next()
				}
				loss := autograd.CrossEntropyLoss(r.Forward(autograd.Constant(x)), labels)
				if err := r.Backward(loss); err != nil {
					log.Fatal(err)
				}
				r.Step()
				if rank == 0 && (it+1)%20 == 0 {
					fmt.Printf("  iter %3d loss %.4f\n", it+1, loss.Value.Item())
				}
			}
			if rank == 0 {
				weights, stateBytes = snapshot(m), bytes
			}
		}(rank)
	}
	wg.Wait()
	return weights, stateBytes
}

func snapshot(m nn.Module) []*tensor.Tensor {
	out := make([]*tensor.Tensor, 0, len(m.Parameters()))
	for _, p := range m.Parameters() {
		out = append(out, p.Value.Clone())
	}
	return out
}
