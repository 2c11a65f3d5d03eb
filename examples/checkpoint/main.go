// Example checkpoint demonstrates durable sharded checkpointing
// (internal/ckpt) wired into elastic training: two workers train with
// periodic sharded saves, the whole world is hard-killed mid-iteration
// — the failure elastic recovery alone cannot survive, since no
// survivor holds the state — and a brand-new pair of workers
// cold-starts from the last committed checkpoint and finishes the run.
// The resumed result is verified bitwise against an uninterrupted
// reference run: restore is exact, not approximate.
//
// For the same scenario across real OS processes (and a deliberately
// torn commit that must be rejected), see
// `ddptrain -elastic -launch -kill-all -ckpt-dir ...` and the
// TestCheckpointColdStartRestoreAcrossProcesses integration test.
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/strategy"
	"repro/internal/tensor"
)

const (
	features = 32
	hidden   = 32
	classes  = 5
	batch    = 8
	world    = 2
	steps    = 12
	every    = 3 // checkpoint cadence
	crashAt  = 8 // every worker dies here; last committed checkpoint is step 6
)

// batchFor derives the worker's shard purely from (step, rank, world) —
// a resumed run rebuilds the exact schedule from the restored step.
func batchFor(step int64, rank, world int) (*tensor.Tensor, []int) {
	rng := rand.New(rand.NewSource(step*1_000_003 + int64(rank)*10_007 + int64(world)*101))
	x := tensor.New(batch, features)
	d := x.Data()
	for i := range d {
		d[i] = rng.Float32()*2 - 1
	}
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func trainStep(ctx elastic.StepContext) error {
	x, labels := batchFor(ctx.Step, ctx.Rank, ctx.World)
	out := ctx.Replica.Forward(autograd.Constant(x))
	if err := ctx.Replica.Backward(autograd.CrossEntropyLoss(out, labels)); err != nil {
		return err
	}
	ctx.Replica.Step()
	return nil
}

// runWorld drives `world` elastic workers over a fresh store/registry
// pair to completion and returns their models. seed picks the initial
// weights (overwritten by a restore, which is the point), crash makes
// every worker die at crashAt, and resume cold-starts from dir.
func runWorld(dir string, seed int64, crash, resume bool) ([]nn.Module, error) {
	st := store.NewInMem(30 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()

	type result struct {
		model nn.Module
		err   error
	}
	results := make([]result, world)
	var wg sync.WaitGroup
	for i := 0; i < world; i++ {
		model := models.NewMLP(seed, features, hidden, classes)
		agent, err := elastic.NewAgent(elastic.Config{
			Store:             st,
			ID:                fmt.Sprintf("w%d", i),
			MinWorld:          world,
			MaxWorld:          world,
			HeartbeatInterval: 10 * time.Millisecond,
			LeaseTimeout:      time.Second,
			Builder:           &elastic.InProcBuilder{Registry: reg},
			// The job's one choice of strategy: DDP plus momentum SGD. The
			// agent has aligned the replicas before it asks for one.
			Replica: func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
				return strategy.Build(m, pg, strategy.Spec{BucketCapBytes: 1 << 12, LR: 0.05, Aligned: true})
			},
			Checkpoint: &elastic.CheckpointConfig{
				Dir:    dir,
				Every:  every,
				Async:  false, // synchronous: committed before the next step runs
				Resume: resume,
			},
		}, model)
		if err != nil {
			return nil, err
		}
		wg.Add(1)
		go func(i int, model nn.Module, agent *elastic.Agent) {
			defer wg.Done()
			step := trainStep
			if crash {
				step = func(ctx elastic.StepContext) error {
					if ctx.Step == crashAt {
						fmt.Printf("  worker %d: killed mid-iteration at step %d\n", i, ctx.Step)
						agent.Kill()
						return errors.New("simulated crash")
					}
					return trainStep(ctx)
				}
			}
			results[i] = result{model: model, err: agent.Run(steps, step)}
		}(i, model, agent)
	}
	wg.Wait()

	models := make([]nn.Module, world)
	for i, r := range results {
		if crash {
			if !errors.Is(r.err, elastic.ErrKilled) {
				return nil, fmt.Errorf("worker %d: expected ErrKilled, got %v", i, r.err)
			}
		} else if r.err != nil {
			return nil, fmt.Errorf("worker %d: %w", i, r.err)
		}
		models[i] = r.model
	}
	return models, nil
}

func main() {
	resumed, ref, err := run()
	if err != nil {
		log.Fatal(err)
	}
	same := true
	for i := range resumed {
		if replica.Hash(resumed[i].Parameters()) != replica.Hash(ref[i].Parameters()) {
			same = false
		}
	}
	fmt.Printf("resumed parameter hash %016x, reference %016x, bitwise identical: %v\n",
		replica.Hash(resumed[0].Parameters()), replica.Hash(ref[0].Parameters()), same)
	if !same {
		log.Fatal("resumed run diverged from the uninterrupted reference")
	}
}

// run trains the uninterrupted reference, then the same schedule killed
// at crashAt and cold-started from its checkpoint, and returns both
// worlds' final models.
func run() (resumed, ref []nn.Module, err error) {
	dir, err := os.MkdirTemp("", "ckpt-example-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	fmt.Printf("reference: %d workers, %d steps, uninterrupted\n", world, steps)
	refDir, err := os.MkdirTemp("", "ckpt-example-ref-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(refDir)
	if ref, err = runWorld(refDir, 7, false, false); err != nil {
		return nil, nil, err
	}

	fmt.Printf("phase 1: same schedule, sharded checkpoint every %d steps, ALL workers killed at step %d\n", every, crashAt)
	if _, err := runWorld(dir, 7, true, false); err != nil {
		return nil, nil, err
	}
	meta, err := ckpt.LatestMeta(dir)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("  run is dead; last committed checkpoint: step %d, saved by world %d\n", meta.Step, meta.World)

	fmt.Printf("phase 2: cold start — fresh store, fresh workers (different init), resume from %s\n", dir)
	resumed, err = runWorld(dir, 1234, false, true)
	return resumed, ref, err
}
