package ddp_test

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/ddp"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// Example reproduces the paper's Section 3.1 usage: wrapping a local
// model is the single line that makes training distributed.
func Example() {
	const world = 2
	groups := comm.NewInProcGroups(world, comm.Options{})

	var wg sync.WaitGroup
	losses := make([]float32, world)
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(rank)))

			// setup model and optimizer
			net := nn.NewLinear(rng, "net", 10, 10)
			model, err := ddp.New(net, groups[rank], ddp.Options{})
			if err != nil {
				panic(err)
			}
			opt := optim.NewSGD(model.Parameters(), 0.01)

			// run forward pass
			dataRng := rand.New(rand.NewSource(int64(100 + rank)))
			inp := autograd.Constant(tensor.RandN(dataRng, 1, 20, 10))
			exp := autograd.Constant(tensor.RandN(dataRng, 1, 20, 10))
			out := model.Forward(inp)

			// run backward pass (bucketed AllReduce overlaps inside)
			loss := autograd.MSELoss(out, exp)
			if err := model.Backward(loss); err != nil {
				panic(err)
			}
			losses[rank] = loss.Value.Item()

			// update parameters
			opt.Step()
		}(rank)
	}
	wg.Wait()
	fmt.Println("both ranks trained:", losses[0] > 0 && losses[1] > 0)
	// Output: both ranks trained: true
}

// ExampleDDP_NoSync shows the gradient accumulation context manager of
// Section 3.2.4: backward passes inside NoSync skip communication and
// accumulate locally.
func ExampleDDP_NoSync() {
	groups := comm.NewInProcGroups(1, comm.Options{})
	rng := rand.New(rand.NewSource(1))
	model, err := ddp.New(nn.NewLinear(rng, "fc", 4, 2), groups[0], ddp.Options{})
	if err != nil {
		panic(err)
	}
	x := autograd.Constant(tensor.Ones(3, 4))
	y := autograd.Constant(tensor.Ones(3, 2))

	// Two accumulation steps without synchronization...
	err = model.NoSync(func() error {
		for i := 0; i < 2; i++ {
			if err := model.Backward(autograd.MSELoss(model.Forward(x), y)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	// ...then one synchronized backward reduces all three gradients.
	if err := model.Backward(autograd.MSELoss(model.Forward(x), y)); err != nil {
		panic(err)
	}
	fmt.Println("accumulated gradients present:", model.Parameters()[0].Grad != nil)
	// Output: accumulated gradients present: true
}
