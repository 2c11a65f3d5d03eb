package bench

import (
	"slices"
	"testing"

	"repro/internal/autograd"
	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/ddp"
	"repro/internal/models"
	"repro/internal/optim"
)

// fig11Reference is Fig 11's loop as it was written before it moved
// onto strategy.Build and train.Step: ddp.New, its own momentum SGD
// stepped after each synchronized Backward, and no_sync by hand. It
// returns rank 0's raw losses.
func fig11Reference(cfg Fig11Config) ([]float64, error) {
	groups := comm.NewInProcGroups(cfg.World, comm.Options{})
	defer closeGroups(groups)
	dataset := data.NewSyntheticNoise(99, 4096, 32, 10, 1.8)
	losses := make([]float64, cfg.Iterations)
	err := runRanks(cfg.World, func(rank int) error {
		model := models.NewMLP(7, dataset.Features(), 32, dataset.Classes())
		d, err := ddp.New(model, groups[rank], ddp.Options{})
		if err != nil {
			return err
		}
		opt := optim.NewSGD(d.Parameters(), cfg.LR)
		opt.Momentum = 0.9
		sampler, err := data.NewDistributedSampler(dataset.Len(), rank, cfg.World)
		if err != nil {
			return err
		}
		loader, err := data.NewLoader(dataset, sampler, cfg.BatchPerRank)
		if err != nil {
			return err
		}
		for it := 0; it < cfg.Iterations; it++ {
			x, labels := loader.Next()
			syncIter := (it+1)%cfg.SyncEvery == 0
			step := func() error {
				out := d.Forward(autograd.Constant(x))
				loss := autograd.CrossEntropyLoss(out, labels)
				if rank == 0 {
					losses[it] = float64(loss.Value.Item())
				}
				return d.Backward(loss)
			}
			if syncIter {
				err = step()
			} else {
				err = d.NoSync(step)
			}
			if err != nil {
				return err
			}
			if syncIter {
				opt.Step()
				opt.ZeroGrad()
			}
		}
		return nil
	})
	return losses, err
}

// TestConvergenceMatchesReference: Fig11Panel(2, 8, 0.02, 80)'s 320 raw
// losses are bit for bit the reference loop's.
func TestConvergenceMatchesReference(t *testing.T) {
	for _, every := range []int{1, 2, 4, 8} {
		cfg := Fig11Config{World: 2, BatchPerRank: 4, LR: 0.02, SyncEvery: every, Iterations: 80}
		want, err := fig11Reference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := runConvergence(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Raw, want) {
			t.Errorf("sync every %d: raw losses differ from the reference loop", every)
		}
	}
}
