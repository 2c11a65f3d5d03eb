// The paramavg example demonstrates the paper's Section 2.2 argument
// for synchronizing gradients instead of parameters: two fleets train
// from identical initial states on identical data — one with DDP
// (gradient synchronization), one with parameter averaging after every
// local Adam step, built exactly as the paper suggests, from explicit
// AllReduce calls on parameters. Their models drift apart because
// per-replica optimizer state diverges.
//
//	go run ./examples/paramavg
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
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/tensor"
)

const (
	world = 2
	iters = 30
)

func main() {
	identical, maxDiff := compare()
	fmt.Printf("\nafter %d iterations on identical data from identical initial weights:\n", iters)
	fmt.Printf("  DDP replicas identical: %v\n", identical)
	fmt.Printf("  max |gradient-sync - parameter-averaging| over all weights: %v\n", maxDiff)
	fmt.Println("\nthe divergence comes from per-replica Adam state: each replica's second")
	fmt.Println("moments track its own local gradients, so the averaged parameters follow a")
	fmt.Println("different trajectory than DDP's mathematically-equivalent-to-local one (§2.2).")
}

// compare trains both fleets on the same data and reports whether the
// DDP replicas end identical, and the largest weight difference between
// the two fleets.
func compare() (identical bool, maxDiff float32) {
	dataRng := rand.New(rand.NewSource(3))
	inputs := make([][]*tensor.Tensor, world)
	targets := make([][]*tensor.Tensor, world)
	for r := 0; r < world; r++ {
		for i := 0; i < iters; i++ {
			inputs[r] = append(inputs[r], tensor.RandN(dataRng, 1, 8, 16))
			targets[r] = append(targets[r], tensor.RandN(dataRng, 1, 8, 4))
		}
	}

	gradSync, identical := trainGradientSync(inputs, targets)
	paramAvg := trainParameterAveraging(inputs, targets)
	for i := range gradSync {
		maxDiff = max(maxDiff, gradSync[i].MaxAbsDiff(paramAvg[i]))
	}
	return identical, maxDiff
}

// trainGradientSync trains with DDP and returns rank 0's final weights,
// and whether every rank ended on them.
func trainGradientSync(inputs, targets [][]*tensor.Tensor) ([]*tensor.Tensor, bool) {
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer closeAll(groups)
	out := make([][]*tensor.Tensor, world)
	hashes := make([]uint64, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := models.NewMLP(1, 16, 12, 4)
			d, err := ddp.New(m, groups[rank], ddp.Options{})
			if err != nil {
				log.Fatal(err)
			}
			opt := optim.NewAdam(d.Parameters(), 0.01)
			for i := 0; i < iters; i++ {
				opt.ZeroGrad()
				o := d.Forward(autograd.Constant(inputs[rank][i]))
				if err := d.Backward(autograd.MSELoss(o, autograd.Constant(targets[rank][i]))); err != nil {
					log.Fatal(err)
				}
				opt.Step()
			}
			out[rank], hashes[rank] = snapshot(m.Parameters()), replica.Hash(m.Parameters())
		}(r)
	}
	wg.Wait()
	return out[0], !slices.ContainsFunc(hashes, func(h uint64) bool { return h != hashes[0] })
}

// trainParameterAveraging runs local Adam steps and then averages
// parameters with explicit AllReduce calls — the "auxiliary step"
// structure the paper warns about.
func trainParameterAveraging(inputs, targets [][]*tensor.Tensor) []*tensor.Tensor {
	groups := comm.NewInProcGroups(world, comm.Options{})
	defer closeAll(groups)
	out := make([][]*tensor.Tensor, world)
	var wg sync.WaitGroup
	for r := 0; r < world; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := models.NewMLP(1, 16, 12, 4) // same seed: same init
			opt := optim.NewAdam(m.Parameters(), 0.01)
			for i := 0; i < iters; i++ {
				opt.ZeroGrad()
				o := m.Forward(autograd.Constant(inputs[rank][i]))
				autograd.Backward(autograd.MSELoss(o, autograd.Constant(targets[rank][i])), nil)
				opt.Step()
				// Average parameters across replicas (Section 2.2: the
				// collective communication feature is the right tool).
				works := make([]comm.Work, 0, len(m.Parameters()))
				for _, p := range m.Parameters() {
					works = append(works, groups[rank].AllReduce(p.Value.Data(), comm.Avg))
				}
				if err := comm.WaitAll(works...); err != nil {
					log.Fatal(err)
				}
			}
			out[rank] = snapshot(m.Parameters())
		}(r)
	}
	wg.Wait()
	return out[0]
}

func snapshot(params []*nn.Parameter) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(params))
	for i, p := range params {
		out[i] = p.Value.Clone()
	}
	return out
}

func closeAll(groups []comm.ProcessGroup) {
	for _, g := range groups {
		g.Close()
	}
}
