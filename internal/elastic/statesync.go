package elastic

import (
	"errors"
	"fmt"

	"repro/internal/comm"
	"repro/internal/nn"
	"repro/internal/replica"
)

// SyncState broadcasts the full training state — model parameters and
// buffers (replica.Align), then st, the optimizer state and error-feedback residuals
// the source's replica captured — from source rank to every rank of pg,
// and returns the state every rank now shares. After it returns, all
// replicas hold bit-identical model tensors, re-establishing DDP's
// Section 2.2 invariant for a freshly reconfigured world: joiners adopt
// the survivor's progress, and survivors whose in-flight iteration was
// aborted are realigned with the most advanced member. Residuals ride
// along because accumulated quantization error is training state like
// momentum: a joiner that started from zero residuals while survivors
// carry theirs would re-inject gradient mass the survivors already
// accounted for, exactly when a reconfiguration has made the schedule
// most fragile.
//
// Only the source's st is read. It travels as State.Fields lists it,
// each vector's length first: a joiner has no replica yet — its replica
// is built from the model this call fills — so it cannot size its
// receive buffers from one.
//
// Every rank must call SyncState with the same source (use
// Assignment.Source so the choice is a pure function of the shared
// membership).
func SyncState(pg comm.ProcessGroup, source int, model nn.Module, st replica.State) (replica.State, error) {
	var lens []float32
	for _, v := range st.Fields() {
		lens = append(lens, replica.Limbs(uint64(len(*v)))...)
	}
	lensWork := pg.Broadcast(lens, source)
	if err := errors.Join(replica.Align(pg, source, model), lensWork.Wait()); err != nil {
		return st, fmt.Errorf("elastic: broadcasting model state: %w", err)
	}
	var works []comm.Work
	for i, v := range st.Fields() {
		if pg.Rank() != source {
			*v = make([]float32, replica.FromLimbs(lens[4*i:4*i+4]))
		}
		if len(*v) > 0 {
			works = append(works, pg.Broadcast(*v, source))
		}
	}
	if err := comm.WaitAll(works...); err != nil {
		return st, fmt.Errorf("elastic: broadcasting optimizer and residual state: %w", err)
	}
	return st, nil
}
