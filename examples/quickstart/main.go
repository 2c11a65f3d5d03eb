// Quickstart mirrors the paper's Section 3.1 example line by line: build
// a local nn.Linear model, wrap it in DistributedDataParallel — the only
// distributed-specific line — then run the usual forward / backward /
// optimizer-step loop. Ranks are goroutines connected by an in-process
// process group.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
)

const world = 4

func main() {
	hashes := run()
	identical := !slices.ContainsFunc(hashes, func(h uint64) bool { return h != hashes[0] })
	fmt.Printf("all %d ranks finished with identical models: %v\n", world, identical)
}

// run trains on `world` goroutine ranks and returns each rank's final
// parameter hash.
func run() []uint64 {
	// initialize the process group (init_process_group)
	groups := comm.NewInProcGroups(world, comm.Options{})

	hashes := make([]uint64, world)
	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			var err error
			if hashes[rank], err = trainRank(rank, groups[rank]); err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
		}(rank)
	}
	wg.Wait()
	return hashes
}

// trainRank runs the paper's loop on one rank and returns its final
// parameter hash.
func trainRank(rank int, pg comm.ProcessGroup) (uint64, error) {
	rng := rand.New(rand.NewSource(int64(rank))) // per-rank init; DDP broadcasts rank 0's

	// setup model and optimizer
	net := nn.NewLinear(rng, "net", 10, 10)
	model, err := ddp.New(net, pg, ddp.Options{})
	if err != nil {
		return 0, err
	}
	opt := optim.NewSGD(model.Parameters(), 0.01)

	dataRng := rand.New(rand.NewSource(100 + int64(rank))) // each rank: its own data shard
	for iter := 0; iter < 25; iter++ {
		inp := autograd.Constant(tensor.RandN(dataRng, 1, 20, 10))
		exp := autograd.Constant(tensor.RandN(dataRng, 1, 20, 10))

		// run forward pass
		out := model.Forward(inp)

		// run backward pass (gradients AllReduce inside, overlapped)
		loss := autograd.MSELoss(out, exp)
		if err := model.Backward(loss); err != nil {
			return 0, err
		}

		// update parameters
		opt.Step()
		opt.ZeroGrad()

		if rank == 0 && (iter+1)%5 == 0 {
			fmt.Printf("iter %2d  loss %.4f  (buckets: %d)\n", iter+1, loss.Value.Item(), model.NumBuckets())
		}
	}
	return replica.Hash(model.Parameters()), nil
}
