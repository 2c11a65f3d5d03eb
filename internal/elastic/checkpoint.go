package elastic

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/replica"
)

// agentCkpt is one agent's checkpoint machinery for one Run: the shared
// directory writer plus, in async mode, the background persister.
type agentCkpt struct {
	cfg   CheckpointConfig
	w     *ckpt.Writer
	async *ckpt.AsyncWriter
	// saved is the step of the last save this agent contributed its
	// shard to (0: none yet). Only Run's goroutine touches it.
	saved int64
}

// initCheckpoint validates the checkpoint configuration and builds the
// writer. Commit coordination goes through the rendezvous store
// (ckpt.StoreCommitter) rather than a collective Barrier, so
// asynchronous saves never inject collectives into the training data
// plane — whose submission order must match across ranks.
func (a *Agent) initCheckpoint() error {
	cc := a.cfg.Checkpoint
	if cc == nil {
		return nil
	}
	if cc.Dir == "" {
		return errors.New("elastic: CheckpointConfig.Dir is required")
	}
	w := &ckpt.Writer{
		Dir:   cc.Dir,
		Keep:  cc.Keep,
		Fault: cc.Fault,
		Committer: &ckpt.StoreCommitter{
			St:      a.cfg.Store,
			Prefix:  a.cfg.Prefix + "/ckpt",
			Poll:    a.cfg.PollInterval,
			Timeout: a.cfg.RoundTimeout,
		},
	}
	a.ck = &agentCkpt{cfg: *cc, w: w}
	if cc.Async {
		a.ck.async = ckpt.NewAsyncWriter(w)
	}
	return nil
}

// restoreCheckpoint is the cold-start restore path: before the first
// rendezvous, load the newest committed checkpoint (if resuming) and
// adopt its step count. The worker then joins the rendezvous holding
// restored progress — the model in its tensors, the rest pending until
// a replica exists to install it into — so the existing
// most-advanced-member election and SyncState broadcast distribute the
// restored state to every rank: a cold start is recovered by exactly
// the mechanism that recovers a partial failure. Re-sharding is free:
// ckpt.Restore reassembles the full state regardless of the world size
// that saved it.
func (a *Agent) restoreCheckpoint() error {
	if a.ck == nil || !a.ck.cfg.Resume {
		return nil
	}
	st, meta, err := a.restoreNewest()
	if errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil // genuinely fresh start
	}
	if err != nil {
		// Committed checkpoints exist but none loads: refuse to train.
		// Silently restarting from step 0 would "recover" by destroying
		// the very progress checkpointing exists to protect.
		return fmt.Errorf("elastic: cold-start restore: %w", err)
	}
	a.mu.Lock()
	a.step = meta.Step
	a.pending = st
	a.mu.Unlock()
	return nil
}

// restoreNewest loads the newest committed checkpoint: the model's
// parameters and buffers go straight into its tensors, the optimizer
// state comes back detached, for the caller to install once a replica
// laid out for the current world exists (ckpt.Snapshot.Apply into a
// live sharded optimizer would slice the vector by the OLD world's
// chunk bounds). Both users — a cold start and a sharded world's
// rollback — record the first checkpoint they load for
// RestoredCheckpoint.
func (a *Agent) restoreNewest() (replica.State, ckpt.Meta, error) {
	var st replica.State
	if a.ck == nil {
		return st, ckpt.Meta{}, ckpt.ErrNoCheckpoint
	}
	meta, err := ckpt.Restore(a.ck.cfg.Dir, a.model, &st)
	if err != nil {
		return st, meta, err
	}
	a.mu.Lock()
	if a.restored == nil {
		a.restored = &meta
	}
	a.mu.Unlock()
	return st, meta, nil
}

// RestoredCheckpoint reports the progress record of the checkpoint this
// agent cold-started from, if any. Callers whose data schedule depends
// on a run-level seed read Meta.Seed from here (the agent records the
// configured seed at save time but does not interpret it — batching is
// the StepFunc's business).
func (a *Agent) RestoredCheckpoint() (ckpt.Meta, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.restored == nil {
		return ckpt.Meta{}, false
	}
	return *a.restored, true
}

// maybeSaveCheckpoint persists the training state if the just-completed
// step count is a save point. All ranks execute the same step sequence,
// so all ranks reach the same save points with the same (generation,
// world) — the invariant the sharded commit protocol needs. A save
// canceled by a concurrent membership change is abandoned silently (the
// previous committed checkpoint remains); any other failure is an
// error.
func (a *Agent) maybeSaveCheckpoint() error {
	ck := a.ck
	if ck == nil || ck.cfg.Every <= 0 {
		return nil
	}
	a.mu.Lock()
	step := a.step
	assign := a.assign
	cancel := a.saveCancel
	a.mu.Unlock()
	if step%ck.cfg.Every != 0 || assign == nil {
		return nil
	}
	if cancel == nil {
		// A membership change is already in flight; skipping keeps this
		// rank out of a commit round that can never complete.
		return nil
	}
	// Bring the full state into reach: the parameters into the model's
	// tensors, the optimizer state into one vector — collectives where
	// the state is sharded, which every rank reaches together because
	// save points are a pure function of the shared step count. A
	// failure there means a membership change is tearing the world down
	// mid-save: abandon the save like one canceled at its commit barrier;
	// the previous committed checkpoint remains and drives the recovery.
	r := a.Replica()
	if r.Materialize() != nil {
		return nil
	}
	st, err := r.CaptureState()
	if err != nil {
		return nil
	}
	snap, err := ckpt.Capture(a.model, &st, ckpt.Meta{
		Step:       step,
		Generation: assign.Generation,
		World:      assign.World,
		Seed:       ck.cfg.Seed,
	})
	if err != nil {
		return fmt.Errorf("elastic: capturing checkpoint: %w", err)
	}
	if ck.async != nil {
		if err := ck.async.Submit(snap, assign.Rank, assign.World, cancel); err != nil {
			return fmt.Errorf("elastic: checkpoint: %w", err)
		}
		ck.saved = step
		return nil
	}
	switch err := ck.w.Save(snap, assign.Rank, assign.World, cancel); {
	case err == nil:
		ck.saved = step
	case !errors.Is(err, ckpt.ErrAbandoned):
		return fmt.Errorf("elastic: checkpoint: %w", err)
	}
	return nil
}

// cancelSaves abandons any save blocked at its commit barrier and
// leaves saveCancel nil, so no new save starts until the next
// reconfiguration arms a fresh channel. Idempotent.
func (a *Agent) cancelSaves() {
	a.mu.Lock()
	ch := a.saveCancel
	a.saveCancel = nil
	a.mu.Unlock()
	if ch != nil {
		close(ch)
	}
}

// armSaves installs a fresh cancellation channel for the new
// generation's saves.
func (a *Agent) armSaves() {
	a.mu.Lock()
	a.saveCancel = make(chan struct{})
	a.mu.Unlock()
}

// finishCheckpoint drains the async persister so the final checkpoint
// is committed before Run returns. Called on the clean-completion path;
// the error surfaces there, because "training finished but its last
// checkpoint did not land" is a durability gap the caller must see.
func (a *Agent) finishCheckpoint() error {
	if a.ck == nil || a.ck.async == nil {
		return nil
	}
	if err := a.ck.async.Close(); err != nil {
		return fmt.Errorf("elastic: draining checkpoints: %w", err)
	}
	return nil
}

// commitBeforeLeaving is the departing worker's half of "a graceful
// Leave costs the survivors nothing": it drains its own saves and then
// waits until the checkpoint it last contributed a shard to is
// committed. A shard landing is not the commit — rank 0 publishes the
// manifest once every rank's shard is in, and followers return from a
// save well before that — and the proposal that follows makes every
// survivor abandon its in-flight saves (interrupt). Announced first,
// the departure would leave the step the whole world just finished
// uncommitted: sharded survivors, who can only resume from a
// checkpoint, would reload the one before it and retrain the step.
//
// The wait ends early when a membership change cancels this
// generation's saves (the commit can then never complete) and gives up
// after RoundTimeout: departure must not hang on a dead rank 0.
func (a *Agent) commitBeforeLeaving() error {
	if err := a.finishCheckpoint(); err != nil {
		return err
	}
	a.mu.Lock()
	cancel := a.saveCancel
	a.mu.Unlock()
	if a.ck == nil || a.ck.saved == 0 || cancel == nil {
		return nil
	}
	deadline := a.cfg.Clock.Now().Add(a.cfg.RoundTimeout)
	for a.cfg.Clock.Now().Before(deadline) {
		if meta, err := ckpt.LatestMeta(a.ck.cfg.Dir); err == nil && meta.Step >= a.ck.saved {
			return nil
		}
		select {
		case <-cancel:
			return nil
		default:
		}
		a.cfg.Clock.Sleep(a.cfg.PollInterval)
	}
	return nil
}

// abortCheckpoint tears the checkpoint machinery down on failure paths:
// in-flight saves are abandoned rather than drained, and their errors
// are discarded — the run is already exiting with a more fundamental
// error.
func (a *Agent) abortCheckpoint() {
	if a.ck == nil {
		return
	}
	a.cancelSaves()
	if a.ck.async != nil {
		//ddplint:ignore storeerr shutdown path; a failed in-flight save is superseded by the restore source chosen at restart
		_ = a.ck.async.Close()
	}
}
