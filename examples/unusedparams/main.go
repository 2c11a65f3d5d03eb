// The unusedparams example exercises the paper's Fig 3(b) scenario:
// dynamic graphs where an iteration touches only a sub-graph of the
// model. It shows (1) the descriptive error DDP raises when
// FindUnusedParameters is off, (2) correct training with it on, using a
// LayerDrop tower (Section 6.2.2) whose shared seed makes all ranks
// skip the same layers each iteration, and (3) globally-unused
// parameters keeping their gradients untouched.
//
//	go run ./examples/unusedparams
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
	"repro/internal/tensor"
)

const (
	world = 2
	iters = 30
)

func main() {
	fmt.Println("without FindUnusedParameters, DDP reports instead of hanging:")
	fmt.Printf("  %v\n\n", subGraphError())
	r := trainWithLayerDrop()
	fmt.Printf("LayerDrop training: rank 0 skipped the middle block %d/%d iterations (rank 1: %d/%d)\n",
		r.skips[0], iters, r.skips[1], iters)
	fmt.Printf("globally unused middle block: gradients untouched in %d/%d skipped iterations (rank 1: %d/%d)\n",
		r.untouched[0], r.skips[0], r.untouched[1], r.skips[1])
	fmt.Printf("replicas identical after %d dynamic-graph iterations: %v\n", iters, r.identical)
}

// towerModel runs fc1 and optionally the middle residual block.
type towerModel struct {
	fc1, fc2 *nn.Linear
	mid      *nn.LayerDrop
}

func newTower(seed int64) *towerModel {
	rng := rand.New(rand.NewSource(seed))
	return &towerModel{
		fc1: nn.NewLinear(rng, "fc1", 16, 16),
		mid: nn.NewLayerDrop(1234 /* shared across ranks */, 0.5,
			nn.NewResidual(nn.NewLinear(rng, "mid", 16, 16))),
		fc2: nn.NewLinear(rng, "fc2", 16, 4),
	}
}

func (m *towerModel) Forward(x *autograd.Variable) *autograd.Variable {
	return m.fc2.Forward(m.mid.Forward(m.fc1.Forward(x)))
}

func (m *towerModel) Parameters() []*nn.Parameter {
	ps := m.fc1.Parameters()
	ps = append(ps, m.mid.Parameters()...)
	return append(ps, m.fc2.Parameters()...)
}
func (m *towerModel) Buffers() []*nn.Buffer { return nil }
func (m *towerModel) SetTraining(t bool)    { m.mid.SetTraining(t) }

// subGraphError returns the error DDP raises when a sub-graph iteration
// runs without FindUnusedParameters.
func subGraphError() error {
	groups := comm.NewInProcGroups(1, comm.Options{})
	defer groups[0].Close()
	rng := rand.New(rand.NewSource(1))
	used := nn.NewLinear(rng, "used", 8, 8)
	skipped := nn.NewLinear(rng, "skipped", 8, 8)
	model := nn.NewSequential(used, skipped)
	d, err := ddp.New(model, groups[0], ddp.Options{}) // FindUnusedParameters off
	if err != nil {
		log.Fatal(err)
	}
	_ = d.Forward(autograd.Constant(tensor.Ones(2, 8)))
	// Loss built from a sub-graph that skips the second layer:
	partial := used.Forward(autograd.Constant(tensor.Ones(2, 8)))
	return d.Backward(autograd.Sum(partial))
}

// layerDropRun is what trainWithLayerDrop observed.
type layerDropRun struct {
	// skips counts, per rank, the iterations LayerDrop skipped the middle
	// block in, and untouched those of them whose backward left the
	// block's gradients nil.
	skips, untouched [world]int
	// identical reports whether the ranks ended on the same parameters.
	identical bool
}

// trainWithLayerDrop trains a LayerDrop tower with FindUnusedParameters
// across 2 ranks.
func trainWithLayerDrop() layerDropRun {
	groups := comm.NewInProcGroups(world, comm.Options{})
	models := make([]*towerModel, world)
	var r layerDropRun

	var wg sync.WaitGroup
	for rank := 0; rank < world; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			m := newTower(int64(10 + rank))
			models[rank] = m
			d, err := ddp.New(m, groups[rank], ddp.Options{FindUnusedParameters: true})
			if err != nil {
				log.Fatalf("rank %d: %v", rank, err)
			}
			opt := optim.NewSGD(d.Parameters(), 0.05)
			dataRng := rand.New(rand.NewSource(int64(rank)))
			for it := 0; it < iters; it++ {
				x := autograd.Constant(tensor.RandN(dataRng, 1, 4, 16))
				y := autograd.Constant(tensor.RandN(dataRng, 1, 4, 4))
				out := d.Forward(x)
				if err := d.Backward(autograd.MSELoss(out, y)); err != nil {
					log.Fatalf("rank %d iter %d: %v", rank, it, err)
				}
				if m.mid.Skipped {
					r.skips[rank]++
					if !slices.ContainsFunc(m.mid.Parameters(), func(p *nn.Parameter) bool { return p.Grad != nil }) {
						r.untouched[rank]++
					}
				}
				opt.Step()
				opt.ZeroGrad()
			}
		}(rank)
	}
	wg.Wait()

	r.identical = true
	for i, p := range models[0].Parameters() {
		if !p.Value.Equal(models[1].Parameters()[i].Value) {
			r.identical = false
		}
	}
	return r
}
