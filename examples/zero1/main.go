// The zero1 example contrasts DDP's replicated-optimizer design with
// the ZeRO-style sharded optimizer of the paper's Section 7: both train
// the same model on the same data to the same weights (sharding a
// momentum update is mathematically free), but the sharded optimizer
// keeps only 1/world of the momentum state per rank, trading DDP's
// single overlapped AllReduce for a ReduceScatter + AllGather per
// bucket. Both arms run the same loop over the replica strategy.Build
// makes; the only difference is the Spec's strategy, "ddp" or "zero2".
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
	"repro/internal/fsdp"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

const (
	world = 4
	iters = 60
	batch = 16
	lr    = 0.05
)

func main() {
	maxDiff, ddpStateBytes, zeroStateBytes := compare()
	fmt.Printf("\nmax |DDP - ZeRO| over all weights after %d iterations: %v\n", iters, maxDiff)
	fmt.Printf("optimizer state per rank: DDP %d bytes, ZeRO shard %d bytes (%.1fx smaller)\n",
		ddpStateBytes, zeroStateBytes, float64(ddpStateBytes)/float64(zeroStateBytes))
}

// compare trains both arms on the same data and returns the largest
// weight difference between them and each arm's optimizer-state bytes
// per rank.
func compare() (maxDiff float32, ddpStateBytes, zeroStateBytes int) {
	dataset := data.NewSynthetic(17, 2048, 24, 6)
	fmt.Println("DDP + SGD:")
	ddpWeights, ddpStateBytes := train(dataset, "ddp")
	fmt.Println("ZeRO-2:")
	zeroWeights, zeroStateBytes := train(dataset, "zero2")
	for i := range ddpWeights {
		maxDiff = max(maxDiff, ddpWeights[i].MaxAbsDiff(zeroWeights[i]))
	}
	return maxDiff, ddpStateBytes, zeroStateBytes
}

// train runs the one training loop of strategy name on `world`
// goroutine ranks and returns rank 0's final weights and
// optimizer-state bytes.
func train(dataset *data.Synthetic, name string) ([]*tensor.Tensor, int) {
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
			r, err := strategy.Build(m, groups[rank], strategy.Spec{Strategy: name, LR: lr})
			if err != nil {
				log.Fatal(err)
			}
			bytes := 4 * nn.NumParams(m) // DDP: full velocity on every rank
			if f, ok := r.(*fsdp.FSDP); ok {
				bytes = f.Stats().OptimizerBytes
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
			// A sharded replica holds only its shards between steps:
			// every rank gathers the full parameters before rank 0 reads
			// them, as the replica.Replica contract asks.
			if err := r.Materialize(); err != nil {
				log.Fatal(err)
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
