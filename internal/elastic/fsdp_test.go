package elastic

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/fsdp"
	"repro/internal/nn"
	"repro/internal/replica"
	"repro/internal/store"
)

// ---- sharded (fsdp) elastic scenarios --------------------------------------
//
// The sharded analogue of the DDP convergence tests. Bitwise equality
// against a plain-DDP reference holds because a ZeRO run over Ring
// groups IS the DDP+SGD trajectory (see internal/fsdp's contract), and
// an fsdp world change is a rollback to the newest committed
// checkpoint — so with Every=1 the rollback lands exactly on the live
// state and the reference is simply two DDP phases at the two world
// sizes.

func newFSDPWorker(t *testing.T, cfg Config, strategy fsdp.Strategy) *testWorker {
	t.Helper()
	cfg.Replica = func(m nn.Module, pg comm.ProcessGroup) (replica.Replica, error) {
		return fsdp.New(m, pg, fsdp.Options{
			Strategy:             strategy,
			BucketCapBytes:       testBucketCap,
			LR:                   testLR,
			Momentum:             testMom,
			SkipInitialBroadcast: true,
		})
	}
	return newTestWorker(t, cfg)
}

// TestFSDPElasticWorldShrinkReshardResume is the acceptance scenario:
// a ZeRO world of 3 trains with per-step checkpoints, one worker
// departs, and the survivors re-shard the committed checkpoint for
// world 2 and finish — bitwise identical to an uninterrupted two-phase
// DDP reference. Run for both strategies; ZeRO-3 is the hard case (the
// leaver's parameter shards exist nowhere else).
func TestFSDPElasticWorldShrinkReshardResume(t *testing.T) {
	for _, strategy := range []fsdp.Strategy{fsdp.ZeRO2, fsdp.ZeRO3} {
		t.Run(strategy.String(), func(t *testing.T) {
			const (
				world     = 3
				total     = 8
				leaveStep = 3 // leaver trains step 3, then departs
			)
			dir := t.TempDir()
			st := store.NewInMem(10 * time.Second)
			defer st.Close()
			reg := comm.NewInProcRegistry()

			workers := make([]*testWorker, world)
			for i := range workers {
				cfg := testConfig(st, reg, fmt.Sprintf("w%d", i), world-1, world)
				cfg.Checkpoint = &CheckpointConfig{Dir: dir, Every: 1}
				workers[i] = newFSDPWorker(t, cfg, strategy)
			}
			victim := world - 1
			errs := runCkptWorkers(t, workers, total, func(i int, w *testWorker) StepFunc {
				base := fullWorld(w.agent, world, elasticStep)
				if i != victim {
					return base
				}
				return func(ctx StepContext) error {
					if ctx.Step == leaveStep {
						// Train this step normally, then depart at the next
						// iteration boundary: survivors roll back to the
						// checkpoint saved after this step and lose nothing.
						w.agent.Leave()
					}
					return base(ctx)
				}
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", i, err)
				}
			}

			// Reference: DDP + SGD over the same schedule, world 3 for
			// steps [0, leaveStep+1), world 2 for the rest.
			ref := newRefWorkers(world)
			runRefPhase(t, ref, 0, leaveStep+1)
			runRefPhase(t, ref[:2], leaveStep+1, total)
			want := flattenParams(ref[0].model)

			for i, w := range workers {
				if i == victim {
					continue // departed at leaveStep+1, state is stale
				}
				if got := w.agent.Step(); got != total {
					t.Fatalf("survivor %d finished at step %d, want %d", i, got, total)
				}
				f, ok := w.agent.Replica().(*fsdp.FSDP)
				if !ok {
					t.Fatalf("survivor %d has no fsdp wrapper", i)
				}
				if f.ProcessGroup().Size() != 2 {
					t.Fatalf("survivor %d still on world %d", i, f.ProcessGroup().Size())
				}
				if strategy == fsdp.ZeRO2 {
					// ZeRO-2 replicates parameters, so survivors hold the
					// full set in memory. (ZeRO-3 survivors hold shards —
					// the checkpoint assertion below covers the full state.)
					assertSameParams(t, fmt.Sprintf("survivor %d", i), flattenParams(w.model), want)
				}
			}

			// The run kept checkpointing after the shrink: the final save
			// must be committed by world 2 at the final step, and it holds
			// the bitwise reference state (its capture materialized the
			// full parameters and gathered the sharded momentum).
			meta, err := ckpt.LatestMeta(dir)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Step != total || meta.World != 2 {
				t.Fatalf("final checkpoint (step %d, world %d), want (step %d, world 2)", meta.Step, meta.World, total)
			}
			restored := testModel()
			if _, err := ckpt.Restore(dir, restored, nil); err != nil {
				t.Fatal(err)
			}
			assertSameParams(t, "final checkpoint", flattenParams(restored), want)
		})
	}
}

// TestFSDPElasticReshardWithoutCheckpointIsTerminal: a sharded world
// cannot rebuild lost shards from a survivor, so a membership change
// without a committed checkpoint must fail loudly instead of silently
// rolling back to garbage.
func TestFSDPElasticReshardWithoutCheckpointIsTerminal(t *testing.T) {
	const world = 2
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	workers := make([]*testWorker, world)
	for i := range workers {
		cfg := testConfig(st, reg, fmt.Sprintf("w%d", i), 1, world)
		workers[i] = newFSDPWorker(t, cfg, fsdp.ZeRO3)
	}
	victim := 1
	errs := runCkptWorkers(t, workers, 6, func(i int, w *testWorker) StepFunc {
		base := fullWorld(w.agent, world, elasticStep)
		if i != victim {
			return base
		}
		return func(ctx StepContext) error {
			if ctx.Step == 2 {
				w.agent.Kill()
				return errors.New("simulated crash")
			}
			return base(ctx)
		}
	})
	if !errors.Is(errs[victim], ErrKilled) {
		t.Fatalf("victim returned %v, want ErrKilled", errs[victim])
	}
	if errs[0] == nil || !strings.Contains(errs[0].Error(), "committed checkpoint") {
		t.Fatalf("survivor must fail loudly without a checkpoint to re-shard, got: %v", errs[0])
	}
}
