package elastic

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/models"
	"repro/internal/optim"
	"repro/internal/replica"
	"repro/internal/store"
)

// ---- in-proc checkpoint/restore scenarios ----------------------------------
//
// These tests exercise the failure mode elastic recovery alone cannot
// survive: every worker dying at once. The run's only continuation is
// the checkpoint directory; a cold restart (fresh store, fresh
// registry, fresh processes-worth of agents) must restore from the last
// committed checkpoint and continue bitwise-identically to a run that
// never crashed.

// newCkptWorker is newTestWorker with a model seed override, so a
// resumed worker can start from provably different initial weights.
func newCkptWorker(t *testing.T, cfg Config, seed int64) *testWorker {
	t.Helper()
	m := models.NewMLP(seed, testIn, testHidden, testClasses)
	a, err := NewAgent(cfg, m)
	if err != nil {
		t.Fatalf("NewAgent(%s): %v", cfg.ID, err)
	}
	return &testWorker{agent: a, model: m}
}

// waitForCommittedCheckpoint blocks until dir holds a committed
// checkpoint (bounded), so a planned crash cannot outrun an async save.
func waitForCommittedCheckpoint(t *testing.T, dir string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := ckpt.LatestMeta(dir); err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no checkpoint committed within the wait window")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestCheckpointKillAllColdRestartBitwiseResume(t *testing.T) {
	for _, mode := range []struct {
		name  string
		async bool
	}{{"sync", false}, {"async", true}} {
		t.Run(mode.name, func(t *testing.T) {
			const (
				world     = 2
				total     = 12
				every     = 3
				crashStep = 8
			)
			dir := t.TempDir()

			// Reference: the same schedule, never interrupted.
			ref := newRefWorkers(world)
			runRefPhase(t, ref, 0, total)

			// Phase 1: train with checkpointing until every worker is
			// hard-killed mid-iteration at crashStep.
			st1 := store.NewInMem(10 * time.Second)
			reg1 := comm.NewInProcRegistry()
			ckCfg := &CheckpointConfig{Dir: dir, Every: every, Async: mode.async}
			phase1 := make([]*testWorker, world)
			for i := range phase1 {
				cfg := testConfig(st1, reg1, fmt.Sprintf("w%d", i), world, world)
				cfg.Checkpoint = ckCfg
				phase1[i] = newTestWorker(t, cfg)
			}
			errs := runWorkers(t, phase1, total, func(i int, w *testWorker) StepFunc {
				return func(ctx StepContext) error {
					if ctx.Step == crashStep {
						// Async saves commit on a background goroutine;
						// the kill-all scenario is "every worker dies
						// AFTER a checkpoint committed", so wait for the
						// commit instead of racing it — otherwise the
						// in-flight step-6 save can be aborted by the
						// kill and leave the directory empty.
						if mode.async {
							waitForCommittedCheckpoint(t, dir)
						}
						w.agent.Kill()
						return errors.New("simulated simultaneous crash")
					}
					return elasticStep(ctx)
				}
			})
			for i, err := range errs {
				if !errors.Is(err, ErrKilled) {
					t.Fatalf("phase-1 worker %d returned %v, want ErrKilled", i, err)
				}
			}
			st1.Close()

			// The run is dead. Its only continuation is the directory:
			// there must be a committed checkpoint, and no torn commit
			// may ever be chosen.
			meta, err := ckpt.LatestMeta(dir)
			if err != nil {
				t.Fatalf("no committed checkpoint after kill-all: %v", err)
			}
			if meta.Step%every != 0 || meta.Step == 0 || meta.Step >= crashStep {
				t.Fatalf("latest checkpoint at step %d, want a committed multiple of %d below %d", meta.Step, every, crashStep)
			}

			// Phase 2: cold start — fresh store, fresh registry, fresh
			// agents with different model seeds (their own weights must
			// be overwritten by the restore).
			st2 := store.NewInMem(10 * time.Second)
			defer st2.Close()
			reg2 := comm.NewInProcRegistry()
			ck2 := *ckCfg
			ck2.Resume = true
			phase2 := make([]*testWorker, world)
			for i := range phase2 {
				cfg := testConfig(st2, reg2, fmt.Sprintf("r%d", i), world, world)
				cfg.Checkpoint = &ck2
				phase2[i] = newCkptWorker(t, cfg, int64(100+i))
			}
			errs = runWorkers(t, phase2, total, func(i int, w *testWorker) StepFunc {
				return elasticStep
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("resumed worker %d: %v", i, err)
				}
			}

			// Bitwise identical to the uninterrupted reference run.
			want := flattenParams(ref[0].model)
			for i, w := range phase2 {
				if got := w.agent.Step(); got != total {
					t.Fatalf("resumed worker %d finished at step %d, want %d", i, got, total)
				}
				assertSameParams(t, fmt.Sprintf("resumed worker %d", i), flattenParams(w.model), want)
			}

			// The resumed run kept checkpointing: its final save (step
			// 12) must be committed and load to the final state.
			final, err := ckpt.LatestMeta(dir)
			if err != nil {
				t.Fatal(err)
			}
			if final.Step != total {
				t.Fatalf("final checkpoint at step %d, want %d", final.Step, total)
			}
			restored := models.NewMLP(55, testIn, testHidden, testClasses)
			if _, _, err := ckpt.Restore(dir, restored); err != nil {
				t.Fatal(err)
			}
			assertSameParams(t, "final checkpoint", flattenParams(restored), want)
		})
	}
}

func TestCheckpointSurvivorsKeepCheckpointingAfterCrash(t *testing.T) {
	// One of three workers dies mid-iteration; the survivors
	// re-rendezvous at world 2 and keep saving under the new
	// generation. In-flight saves of the dead generation are abandoned,
	// never committed torn, and the final checkpoint reflects the
	// survivors' final state.
	const (
		world     = 3
		total     = 10
		every     = 2
		crashStep = 5
	)
	dir := t.TempDir()
	st := store.NewInMem(10 * time.Second)
	defer st.Close()
	reg := comm.NewInProcRegistry()
	ckCfg := &CheckpointConfig{Dir: dir, Every: every, Async: true}
	workers := make([]*testWorker, world)
	for i := range workers {
		cfg := testConfig(st, reg, fmt.Sprintf("w%d", i), world-1, world)
		cfg.Checkpoint = ckCfg
		workers[i] = newTestWorker(t, cfg)
	}
	victim := world - 1
	errs := runWorkers(t, workers, total, func(i int, w *testWorker) StepFunc {
		base := fullWorld(w, world, elasticStep)
		if i != victim {
			return base
		}
		return func(ctx StepContext) error {
			if ctx.Step == crashStep {
				w.agent.Kill()
				return errors.New("simulated crash")
			}
			return base(ctx)
		}
	})
	for i, err := range errs {
		if i == victim {
			if !errors.Is(err, ErrKilled) {
				t.Fatalf("victim returned %v, want ErrKilled", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}

	meta, err := ckpt.LatestMeta(dir)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Step != total {
		t.Fatalf("final checkpoint at step %d, want %d", meta.Step, total)
	}
	if meta.World != 2 {
		t.Fatalf("final checkpoint saved by world %d, want the shrunken world 2", meta.World)
	}
	restored := models.NewMLP(55, testIn, testHidden, testClasses)
	if _, _, err := ckpt.Restore(dir, restored); err != nil {
		t.Fatal(err)
	}
	assertSameParams(t, "final checkpoint", flattenParams(restored), flattenParams(workers[0].model))
}

func TestCheckpointResumeFailsLoudlyWhenAllCorrupt(t *testing.T) {
	// Committed checkpoints exist but every one is damaged: the agent
	// must refuse to start rather than silently train from step 0.
	dir := t.TempDir()
	st := store.NewInMem(5 * time.Second)
	defer st.Close()

	m := models.NewMLP(7, testIn, testHidden, testClasses)
	opt := optim.NewSGD(m.Parameters(), testLR)
	w := &ckpt.Writer{Dir: dir, Committer: &ckpt.StoreCommitter{St: st}}
	snap, err := ckpt.Capture(m, replica.State{Optimizer: opt.FlatState()}, ckpt.Meta{Step: 4, World: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Save(snap, 0, 1, nil); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the sole shard.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := false
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".shard") {
			path := filepath.Join(dir, e.Name())
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[len(raw)/2] ^= 0x40
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			flipped = true
		}
	}
	if !flipped {
		t.Fatal("no shard written")
	}

	reg := comm.NewInProcRegistry()
	cfg := testConfig(st, reg, "w0", 1, 1)
	cfg.Checkpoint = &CheckpointConfig{Dir: dir, Resume: true}
	worker := newTestWorker(t, cfg)
	err = worker.agent.Run(2, elasticStep)
	if err == nil {
		t.Fatal("agent trained from scratch over a corrupt checkpoint dir")
	}
	if errors.Is(err, ckpt.ErrNoCheckpoint) || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("want a loud cold-start restore error, got: %v", err)
	}
}

func TestCheckpointConfigRequiresDir(t *testing.T) {
	st := store.NewInMem(time.Second)
	defer st.Close()
	cfg := testConfig(st, comm.NewInProcRegistry(), "w0", 1, 1)
	cfg.Checkpoint = &CheckpointConfig{Every: 2}
	w := newTestWorker(t, cfg)
	if err := w.agent.Run(1, elasticStep); err == nil || !strings.Contains(err.Error(), "Dir") {
		t.Fatalf("missing Dir must fail fast, got %v", err)
	}
}
