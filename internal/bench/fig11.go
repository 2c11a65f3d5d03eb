package bench

import (
	"fmt"
	"io"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/models"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/train"
)

// Fig11Config parameterizes one convergence run of Fig 11.
type Fig11Config struct {
	// World is the number of in-process ranks.
	World int
	// BatchPerRank is the per-rank batch size (paper batch 8 and 256 are
	// global sizes; divide by world).
	BatchPerRank int
	// LR is the SGD learning rate (paper: 0.02 for batch 8, 0.06 for
	// batch 256).
	LR float32
	// SyncEvery synchronizes gradients (and steps the optimizer) every
	// n-th iteration.
	SyncEvery int
	// Iterations is the number of training iterations to record.
	Iterations int
}

// Fig11Curve holds one loss curve.
type Fig11Curve struct {
	Label    string
	Raw      []float64
	Smoothed []float64
	// FinalLoss is the mean smoothed loss over the last 10% of training
	// — the quantity the paper's red box highlights in Fig 11(b).
	FinalLoss float64
}

// runConvergence trains a real model with real DDP over in-process
// process groups and records rank 0's per-iteration loss. This is
// actual execution, not simulation: every AllReduce moves real bytes.
func runConvergence(cfg Fig11Config) (Fig11Curve, error) {
	groups := comm.NewInProcGroups(cfg.World, comm.Options{})
	defer closeGroups(groups)

	// Substantial class overlap gives the task a nonzero loss floor, so
	// overshooting from accumulated no_sync gradients shows up as a
	// worse final loss rather than vanishing into a separable optimum.
	dataset := data.NewSyntheticNoise(99, 4096, 32, 10, 1.8)
	losses := make([]float64, cfg.Iterations)
	err := runRanks(cfg.World, func(rank int) error {
		model := models.NewMLP(7, dataset.Features(), 32, dataset.Classes())
		r, err := strategy.Build(model, groups[rank], strategy.Spec{LR: cfg.LR})
		if err != nil {
			return err
		}
		sampler, err := data.NewDistributedSampler(dataset.Len(), rank, cfg.World)
		if err != nil {
			return err
		}
		loader, err := data.NewLoader(dataset, sampler, cfg.BatchPerRank)
		if err != nil {
			return err
		}
		for it := range losses {
			x, labels := loader.Next()
			st, err := train.Step(r, x, train.CrossEntropy(labels), (it+1)%cfg.SyncEvery == 0)
			if err != nil {
				return err
			}
			if rank == 0 {
				losses[it] = float64(st.Loss)
			}
		}
		return nil
	})
	if err != nil {
		return Fig11Curve{}, err
	}

	smoothed := stats.SmoothLosses(losses)
	tail := len(smoothed) / 10
	if tail == 0 {
		tail = 1
	}
	var final float64
	for _, v := range smoothed[len(smoothed)-tail:] {
		final += v
	}
	final /= float64(tail)
	return Fig11Curve{
		Label:     fmt.Sprintf("no_sync_%d", cfg.SyncEvery),
		Raw:       losses,
		Smoothed:  smoothed,
		FinalLoss: final,
	}, nil
}

// Fig11Panel runs the four sync frequencies for one (batch, lr) setting.
func Fig11Panel(world, globalBatch int, lr float32, iters int) ([]Fig11Curve, error) {
	curves := make([]Fig11Curve, 0, 4)
	for _, every := range []int{1, 2, 4, 8} {
		c, err := runConvergence(Fig11Config{
			World:        world,
			BatchPerRank: globalBatch / world,
			LR:           lr,
			SyncEvery:    every,
			Iterations:   iters,
		})
		if err != nil {
			return nil, err
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// Fig11 reproduces both panels of Fig 11 with real distributed training:
// (a) batch 8, lr 0.02 — skipping sync barely hurts; (b) batch 256,
// lr 0.06 — no_sync degrades the final loss. Panel (b)'s degradation is
// the paper's point that large accumulated batches implicitly need a
// smaller learning rate.
func Fig11(w io.Writer, iters int) error {
	const world = 4
	type panel struct {
		name        string
		globalBatch int
		lr          float32
	}
	for _, p := range []panel{
		{"a: batch=8, lr=0.02", 8, 0.02},
		{"b: batch=256, lr=0.06", 256, 0.06},
	} {
		curves, err := Fig11Panel(world, p.globalBatch, p.lr, iters)
		if err != nil {
			return err
		}
		header(w, fmt.Sprintf("Fig 11(%s): smoothed training loss, %d ranks (real execution)", p.name, world))
		fmt.Fprintf(w, "%-12s", "iteration")
		for _, c := range curves {
			fmt.Fprintf(w, " %10s", c.Label)
		}
		fmt.Fprintln(w)
		n := len(curves[0].Smoothed)
		step := n / 10
		if step == 0 {
			step = 1
		}
		for i := 0; i < n; i += step {
			fmt.Fprintf(w, "%-12d", i)
			for _, c := range curves {
				fmt.Fprintf(w, " %10.4f", c.Smoothed[i])
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-12s", "final")
		for _, c := range curves {
			fmt.Fprintf(w, " %10.4f", c.FinalLoss)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\npaper: panel (a) curves overlap (negligible impact); panel (b) no_sync hurts the final loss.")
	return nil
}
