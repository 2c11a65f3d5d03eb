package chaos

import (
	"strings"
	"testing"
	"time"

	"repro/internal/autograd"
	"repro/internal/ckpt"
	"repro/internal/comm"
	"repro/internal/optim"
	"repro/internal/store"
	"repro/internal/strategy"
)

// TestGatherHookFollowsTheReplica: the hook the engine arms a ZeRO-3
// mid-step kill with runs inside Forward, ahead of its parameter
// gathers, and still does on the group a Rebind hands over.
func TestGatherHookFollowsTheReplica(t *testing.T) {
	groups := append(comm.NewInProcGroups(1, comm.Options{}), comm.NewInProcGroups(1, comm.Options{})...)
	defer func() {
		for _, g := range groups {
			g.Close()
		}
	}()
	calls := 0
	hook := func() { calls++ }
	f, err := strategy.Build(chModel(), gatherHooked(groups[0], hook), chSpec("zero3", ""))
	if err != nil {
		t.Fatal(err)
	}
	r := gatherHookReplica{f, hook}
	x, _ := chBatchFor(0, 0, 1)
	for i, pg := range groups {
		if i > 0 {
			if err := r.Rebind(pg); err != nil {
				t.Fatal(err)
			}
		}
		before := calls
		r.Forward(autograd.Constant(x))
		if calls == before {
			t.Fatalf("forward on group %d ran no hooked gather", i)
		}
		if err := r.Materialize(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShrinkMutantsAreSmallerAndNormal: every proposed mutant must be
// runnable (normal form) and must not grow the schedule — the two
// properties the greedy shrinker relies on for convergence.
func TestShrinkMutantsAreSmallerAndNormal(t *testing.T) {
	c := Normalize(Schedule{World: 3, Steps: 10, Codec: "1bit", CkptEvery: 2, Events: []Event{
		{Kind: EvStraggle, Worker: 1, Step: 2, Count: 5, SlowMs: 40},
		{Kind: EvSlowDisk, Worker: 0, Step: 3, SlowMs: 80},
		{Kind: EvKillAll, Step: 6},
	}})
	muts := shrinkMutants(c)
	if len(muts) == 0 {
		t.Fatal("no mutants for a fully-loaded schedule")
	}
	for _, m := range muts {
		if _, err := Validate(m); err != nil {
			t.Fatalf("mutant not normal form: %v\n%s", err, m.Encode())
		}
		if m.Steps > c.Steps || len(m.Events) > len(c.Events) {
			t.Fatalf("mutant grew:\nfrom %sto %s", c.Encode(), m.Encode())
		}
	}
	// The aggressive reductions must be among the proposals.
	var sawNoCodec, sawNoCkpt, sawHalfSteps bool
	for _, m := range muts {
		sawNoCodec = sawNoCodec || m.Codec == ""
		sawNoCkpt = sawNoCkpt || m.CkptEvery == 0
		sawHalfSteps = sawHalfSteps || m.Steps == (c.Steps+minStepsBound)/2
	}
	if !sawNoCodec || !sawNoCkpt || !sawHalfSteps {
		t.Fatalf("missing aggressive mutants (codec %v, ckpt %v, steps %v)",
			sawNoCodec, sawNoCkpt, sawHalfSteps)
	}
}

// TestShrinkPassthrough: a passing schedule comes back unchanged.
func TestShrinkPassthrough(t *testing.T) {
	s := Normalize(Schedule{World: 2, Steps: 2})
	min, rep := Shrink(s, Options{})
	if rep.Failed() {
		t.Fatalf("trivial schedule failed: %s", rep)
	}
	if min.Steps != s.Steps || min.World != s.World {
		t.Fatalf("Shrink changed a passing schedule: %s", min.Encode())
	}
}

// TestFaultHook pins the checkpoint-disk shim's two behaviors and its
// wiring through ckpt.Writer: an armed failure surfaces as a Save
// error before any bytes land, and an armed delay stretches the write.
func TestFaultHook(t *testing.T) {
	f := &faultHook{}
	if err := f.BeforeWrite("shard"); err != nil {
		t.Fatalf("unarmed hook errored: %v", err)
	}
	f.armSlow(30)
	start := time.Now()
	if err := f.BeforeWrite("shard"); err != nil {
		t.Fatalf("slow hook errored: %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("slow hook returned after %v, want >= 30ms", d)
	}
	f.armFail()
	err := f.BeforeWrite("shard")
	if err == nil || !strings.Contains(err.Error(), "injected disk fault") {
		t.Fatalf("armed hook error = %v", err)
	}

	// Wiring: a Writer with the armed hook must fail the save.
	m := chModel()
	opt := optim.NewSGD(m.Parameters(), chLR)
	opt.Momentum = 0.9
	snap, cerr := ckpt.Capture(m, opt.FlatState(), ckpt.Meta{Generation: 1, Step: 2})
	if cerr != nil {
		t.Fatal(cerr)
	}
	st := store.NewInMem(2 * time.Second)
	defer st.Close()
	w := &ckpt.Writer{
		Dir:       t.TempDir(),
		Committer: &ckpt.StoreCommitter{St: st},
		Fault:     f,
	}
	if err := w.Save(snap, 0, 1, nil); err == nil || !strings.Contains(err.Error(), "injected disk fault") {
		t.Fatalf("Save with armed hook = %v, want injected disk fault", err)
	}
	if _, err := ckpt.LatestMeta(w.Dir); err == nil {
		t.Fatal("faulted save still committed a checkpoint")
	}
}

// TestReplayRejectsNonNormal: a reproducer that Normalize would repair
// is refused rather than silently rewritten.
func TestReplayRejectsNonNormal(t *testing.T) {
	s := Schedule{World: 9, Steps: 4} // world out of bounds
	if _, err := Replay(s.Encode()); err == nil {
		t.Fatal("Replay accepted a non-normal-form schedule")
	}
	if _, err := Replay([]byte("{")); err == nil {
		t.Fatal("Replay accepted malformed JSON")
	}
}

// TestRunRejectsBadSchedule: the engine refuses (with a schedule
// violation, not a panic) input that bypassed Normalize.
func TestRunRejectsBadSchedule(t *testing.T) {
	rep := Run(Schedule{World: 99, Steps: -3})
	if !rep.Has(invSchedule) {
		t.Fatalf("report = %s, want a %q violation", rep, invSchedule)
	}
}
