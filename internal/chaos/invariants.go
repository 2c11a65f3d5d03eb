package chaos

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/ckpt"
	"repro/internal/elastic"
	"repro/internal/replica"
	"repro/internal/trace"
)

// checkInvariants runs every system-wide check against the finished
// engine state. A harness failure (timeout, setup error) voids the
// rest: the cluster state is not meaningful evidence then.
func (e *engine) checkInvariants(restore int64) {
	e.mu.Lock()
	e.rep.Violations = append(e.rep.Violations, e.conflicts...)
	flags := append([]elastic.StragglerFlag(nil), e.flags...)
	e.mu.Unlock()
	if e.rep.Has(invHarness) {
		return
	}
	ws := e.snapshotWorkers()
	e.checkExits(ws)
	e.checkGenLinearity()
	e.checkTrajectory(restore)
	e.checkDurability(ws, restore)
	e.checkBitwise(ws, restore)
	e.checkSpans(ws)
	e.checkStraggler(flags)
}

func (e *engine) findWorker(ws []*runWorker, wp workerPlan) *runWorker {
	for _, w := range ws {
		if w.plan.ord == wp.ord && w.plan.era == wp.era && w.plan.joinStep == wp.joinStep {
			return w
		}
	}
	return nil
}

// checkExits: every planned instance spawned and exited the way the
// schedule dictates — killed workers with ErrKilled, leavers and
// finishers cleanly at their exact step count, disk-fault victims with
// a checkpoint error.
func (e *engine) checkExits(ws []*runWorker) {
	for _, wp := range e.p.workers {
		w := e.findWorker(ws, wp)
		if w == nil {
			e.rep.add(invTrajectory, fmt.Sprintf("planned instance w%d/era%d never spawned", wp.ord, wp.era))
			continue
		}
		err := w.runErr()
		switch wp.exit {
		case exitClean:
			if err != nil {
				e.rep.add(invExit, fmt.Sprintf("%s/era%d: expected clean exit, got %v", w.id, wp.era, err))
			} else if wp.exitStep >= 0 && w.agent.Step() != wp.exitStep {
				e.rep.add(invExit, fmt.Sprintf("%s/era%d: exited at step %d, expected %d",
					w.id, wp.era, w.agent.Step(), wp.exitStep))
			}
		case exitKilled:
			if !errors.Is(err, elastic.ErrKilled) {
				e.rep.add(invExit, fmt.Sprintf("%s/era%d: expected ErrKilled, got %v", w.id, wp.era, err))
			}
		case exitError:
			if err == nil || errors.Is(err, elastic.ErrKilled) {
				e.rep.add(invExit, fmt.Sprintf("%s/era%d: expected a fault error, got %v", w.id, wp.era, err))
			}
		}
	}
}

// checkGenLinearity: the recorded generation history is one linear CAS
// chain — created as 0, then strict +1 increments, each starting from
// the previous committed value. A fork or skip means two generations
// were live at once.
func (e *engine) checkGenLinearity() {
	hist := e.rec.history()
	if len(hist) == 0 {
		e.rep.add(invGenLinear, "no generation transitions recorded")
		return
	}
	if hist[0][0] != "" || hist[0][1] != "0" {
		e.rep.add(invGenLinear, fmt.Sprintf("history starts with %q -> %q, want creation at 0", hist[0][0], hist[0][1]))
		return
	}
	prev := hist[0][1]
	for _, sw := range hist[1:] {
		if sw[0] != prev {
			e.rep.add(invGenLinear, fmt.Sprintf("history forks: swap from %q after committed %q", sw[0], prev))
			return
		}
		po, err1 := strconv.Atoi(sw[0])
		pn, err2 := strconv.Atoi(sw[1])
		if err1 != nil || err2 != nil || pn != po+1 {
			e.rep.add(invGenLinear, fmt.Sprintf("non-increment transition %q -> %q", sw[0], sw[1]))
			return
		}
		prev = sw[1]
	}
}

// checkTrajectory: each era's completed steps cover exactly the
// predicted range, each at the predicted world size.
func (e *engine) checkTrajectory(restore int64) {
	m0 := e.stepLog[0]
	for s := int64(0); s < e.p.end0; s++ {
		r, ok := m0[s]
		if !ok {
			e.rep.add(invTrajectory, fmt.Sprintf("era 0 step %d never completed", s))
			continue
		}
		if r.world != e.p.world0[s] {
			e.rep.add(invTrajectory, fmt.Sprintf("era 0 step %d completed at world %d, predicted %d", s, r.world, e.p.world0[s]))
		}
	}
	for s := range m0 {
		if s >= e.p.end0 {
			e.rep.add(invTrajectory, fmt.Sprintf("era 0 completed step %d past its end %d", s, e.p.end0))
		}
	}
	m1 := e.stepLog[1]
	if e.p.killAll == nil {
		if len(m1) != 0 {
			e.rep.add(invTrajectory, fmt.Sprintf("%d era-1 steps completed without a kill-all", len(m1)))
		}
		return
	}
	for s := restore; s < e.p.s.Steps; s++ {
		r, ok := m1[s]
		if !ok {
			e.rep.add(invTrajectory, fmt.Sprintf("era 1 step %d never completed", s))
			continue
		}
		if r.world != e.p.world1[s] {
			e.rep.add(invTrajectory, fmt.Sprintf("era 1 step %d completed at world %d, predicted %d", s, r.world, e.p.world1[s]))
		}
	}
	for s := range m1 {
		if s < restore || s >= e.p.s.Steps {
			e.rep.add(invTrajectory, fmt.Sprintf("era 1 completed step %d outside [%d,%d)", s, restore, e.p.s.Steps))
		}
	}
}

// checkDurability: committed checkpoints are never lost. The restored
// step observed after a kill-all must be what every respawn actually
// restored, and the directory's newest committed checkpoint can only
// move forward from there.
func (e *engine) checkDurability(ws []*runWorker, restore int64) {
	s := e.p.s
	if s.CkptEvery <= 0 {
		return
	}
	meta, err := ckpt.LatestMeta(e.dir)
	hasFinal := err == nil
	if err != nil && !errors.Is(err, ckpt.ErrNoCheckpoint) {
		e.rep.add(invDurability, fmt.Sprintf("final checkpoint state unreadable: %v", err))
		return
	}
	if hasFinal {
		if meta.Step <= 0 || meta.Step > s.Steps || meta.Step%s.CkptEvery != 0 {
			e.rep.add(invDurability, fmt.Sprintf("final committed step %d not a save point of every=%d steps=%d",
				meta.Step, s.CkptEvery, s.Steps))
		}
		if _, _, err := ckpt.Load(e.dir); err != nil {
			e.rep.add(invDurability, fmt.Sprintf("final committed checkpoint does not load: %v", err))
		}
	}
	// A quiet run (no faults) must retain its last save point.
	if len(s.Events) == 0 && s.Steps >= s.CkptEvery {
		want := s.Steps - s.Steps%s.CkptEvery
		if !hasFinal || meta.Step != want {
			got := int64(-1)
			if hasFinal {
				got = meta.Step
			}
			e.rep.add(invDurability, fmt.Sprintf("fault-free run committed step %d, want %d", got, want))
		}
	}
	if e.p.killAll == nil {
		return
	}
	if restore > 0 && !hasFinal {
		e.rep.add(invDurability, fmt.Sprintf("step-%d checkpoint seen before restart is gone", restore))
	}
	if hasFinal && meta.Step < restore {
		e.rep.add(invDurability, fmt.Sprintf("committed step regressed: %d before restart, %d now", restore, meta.Step))
	}
	for _, w := range ws {
		if w.plan.era != 1 || w.plan.joinStep != -1 {
			continue
		}
		m, ok := w.agent.RestoredCheckpoint()
		if restore == 0 {
			if ok {
				e.rep.add(invDurability, fmt.Sprintf("%s/era1 restored step %d; no checkpoint was committed", w.id, m.Step))
			}
			continue
		}
		if !ok {
			e.rep.add(invDurability, fmt.Sprintf("%s/era1 restored nothing; step %d was committed", w.id, restore))
		} else if m.Step != restore {
			e.rep.add(invDurability, fmt.Sprintf("%s/era1 restored step %d, committed newest was %d", w.id, m.Step, restore))
		}
	}
}

// checkBitwise: all clean survivors agree exactly — model parameters,
// optimizer state, and (under a codec) error-feedback residuals — with
// each other and with the failure-free reference replay of the same
// membership lineage.
func (e *engine) checkBitwise(ws []*runWorker, restore int64) {
	var survivors []*runWorker
	for _, w := range ws {
		if w.plan.exit == exitClean && w.plan.exitStep == e.p.s.Steps && w.runErr() == nil {
			survivors = append(survivors, w)
		}
	}
	if len(survivors) == 0 {
		if !e.rep.Failed() {
			e.rep.add(invHarness, "no clean survivor to compare")
		}
		return
	}
	ref, err := runReference(e.p, restore)
	if err != nil {
		e.rep.add(invHarness, err.Error())
		return
	}
	if len(ref.workers) == 0 {
		e.rep.add(invHarness, "reference replay produced no workers")
		return
	}
	r0 := ref.workers[0]
	if e.p.s.Strategy != "" {
		e.checkBitwiseSharded(survivors, r0)
		return
	}
	// Replicated survivors hold everything in memory, so capturing a
	// finished replica's state is local.
	stateOf := func(w *runWorker) replica.State {
		st, _ := w.agent.Replica().CaptureState()
		return st
	}
	base := survivors[0]
	baseParams, baseState := chFlattenParams(base.model), stateOf(base)
	for _, w := range survivors[1:] {
		e.compare(fmt.Sprintf("survivors %s and %s disagree on", base.id, w.id), chFlattenParams(w.model), baseParams, stateOf(w), baseState)
	}
	e.compare(fmt.Sprintf("survivor %s diverges from the failure-free reference on", base.id), baseParams, chFlattenParams(r0.model), baseState, r0.state())
}

// compare adds a bitwise violation for each of parameters, optimizer
// state and error-feedback residuals on which the two sides differ.
func (e *engine) compare(what string, params, wantParams []float32, st, want replica.State) {
	for _, c := range []struct {
		name      string
		got, want []float32
	}{{"params", params, wantParams}, {"optimizer state", st.Optimizer, want.Optimizer}, {"residuals", st.Residuals, want.Residuals}} {
		if i, ok := sameF32(c.got, c.want); !ok {
			e.rep.add(invBitwise, fmt.Sprintf("%s %s (index %d)", what, c.name, i))
		}
	}
}

// checkBitwiseSharded is the sharded-run (ZeRO-2/3) form of the bitwise
// invariant. Survivors have no SGD instance to read (fsdp fuses the
// optimizer into Backward), so the full end state is asserted through
// the final committed checkpoint — which sharded schedules guarantee
// exists at the final step (CkptEvery is forced to 1) — and, since that
// save materialized the full parameters into every survivor's tensors,
// through each survivor's parameters as well. The oracle is still the
// plain-DDP reference replay, r0: a ZeRO run over Ring groups IS the
// DDP+SGD trajectory, bitwise.
func (e *engine) checkBitwiseSharded(survivors []*runWorker, r0 *refWorker) {
	refParams := chFlattenParams(r0.model)
	for _, w := range survivors {
		e.compare(fmt.Sprintf("survivor %s diverges from the failure-free reference on", w.id), chFlattenParams(w.model), refParams, replica.State{}, replica.State{})
	}
	snap, man, err := ckpt.Load(e.dir)
	if err != nil {
		e.rep.add(invBitwise, fmt.Sprintf("sharded run left no loadable final checkpoint: %v", err))
		return
	}
	if man.Meta.Step != e.p.s.Steps {
		e.rep.add(invBitwise, fmt.Sprintf("final sharded checkpoint at step %d, want %d", man.Meta.Step, e.p.s.Steps))
	}
	m := chModel()
	_, st, err := snap.Apply(m)
	if err != nil {
		e.rep.add(invBitwise, fmt.Sprintf("final sharded checkpoint does not apply: %v", err))
		return
	}
	e.compare("final checkpoint diverges from the failure-free reference on", chFlattenParams(m), refParams, st, r0.state())
}

// chaosPhases is the recovery-phase vocabulary (mirrors reconfigure()).
var chaosPhases = map[string]bool{
	"teardown":   true,
	"rendezvous": true,
	"mesh-build": true,
	"state-sync": true,
	"rebind":     true,
	"install":    true,
}

// spanTiles is the structural span invariant: phases partition the
// recovery root exactly — contiguous, named from the vocabulary, first
// teardown, durations summing to precisely the root's duration.
func spanTiles(root *trace.Span) error {
	if root.Name != "recovery" {
		return fmt.Errorf("root span named %q, want recovery", root.Name)
	}
	if len(root.Children) == 0 {
		return fmt.Errorf("recovery span has no phases")
	}
	var sum time.Duration
	cursor := root.Start
	for i, c := range root.Children {
		if !chaosPhases[c.Name] {
			return fmt.Errorf("phase %d has unexpected name %q", i, c.Name)
		}
		if !c.Start.Equal(cursor) {
			return fmt.Errorf("phase %q starts at %v, want %v (gap or overlap)", c.Name, c.Start, cursor)
		}
		if c.End.IsZero() {
			return fmt.Errorf("phase %q left open inside a closed recovery", c.Name)
		}
		sum += c.Duration()
		cursor = c.End
	}
	if !cursor.Equal(root.End) {
		return fmt.Errorf("last phase ends at %v, root at %v", cursor, root.End)
	}
	if sum != root.Duration() {
		return fmt.Errorf("phase durations sum to %v, recovery took %v", sum, root.Duration())
	}
	if root.Children[0].Name != "teardown" {
		return fmt.Errorf("first phase %q, want teardown", root.Children[0].Name)
	}
	return nil
}

// checkSpans: every closed recovery span tiles exactly; open roots are
// recoveries a kill interrupted and carry no obligation. Every clean
// survivor must have produced at least one closed recovery (its
// initial formation, if nothing else).
func (e *engine) checkSpans(ws []*runWorker) {
	for _, w := range ws {
		closed := 0
		for _, root := range w.tracer.Roots() {
			if root.End.IsZero() {
				continue
			}
			closed++
			if err := spanTiles(root); err != nil {
				e.rep.add(invSpans, fmt.Sprintf("%s/era%d: %v", w.id, w.plan.era, err))
			}
		}
		if closed == 0 && w.plan.exit == exitClean && w.runErr() == nil {
			e.rep.add(invSpans, fmt.Sprintf("%s/era%d exited cleanly with no closed recovery span", w.id, w.plan.era))
		}
	}
}

// checkStraggler: a viable synthetic straggler (long, stable span on a
// surviving worker) must have produced a flagged transition. This is
// positive-only: absence-of-flag assertions on non-viable spans would
// race the detector's gossip cadence.
func (e *engine) checkStraggler(flags []elastic.StragglerFlag) {
	for _, sp := range e.p.straggle {
		if !sp.viable {
			continue
		}
		id := fmt.Sprintf("w%d", sp.ord)
		found := false
		for _, f := range flags {
			if f.Worker == id && f.Flagged {
				found = true
				break
			}
		}
		if !found {
			e.rep.add(invStraggler, fmt.Sprintf(
				"viable straggler %s (era %d, steps [%d,%d), +%dms/step) was never flagged",
				id, sp.era, sp.start, sp.start+sp.count, sp.slowMs))
		}
	}
}
