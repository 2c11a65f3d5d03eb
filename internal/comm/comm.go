package comm

import (
	"errors"
	"fmt"
)

// ReduceOp selects the arithmetic applied by AllReduce.
type ReduceOp int

// Supported reductions, mirroring c10d.
const (
	Sum ReduceOp = iota
	Prod
	Min
	Max
	// Avg sums and divides by world size, the reduction DDP applies to
	// gradients.
	Avg
)

// String returns the op name.
func (op ReduceOp) String() string {
	switch op {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Min:
		return "min"
	case Max:
		return "max"
	case Avg:
		return "avg"
	default:
		return fmt.Sprintf("ReduceOp(%d)", int(op))
	}
}

// check refuses an op outside the declared set. The collectives call it
// at submission, before a tag is reserved: the fold would otherwise find
// out on the group's worker mid-collective, with the peers blocked, and
// at world 1, where nothing folds, never.
func (op ReduceOp) check() error {
	if op < Sum || op > Avg {
		return fmt.Errorf("comm: unknown reduce op %v", op)
	}
	return nil
}

// Work is an async handle for a submitted collective, like
// torch.distributed's Work: Wait blocks until the operation completed
// on this rank and returns its error.
type Work interface {
	Wait() error
}

// ErrClosed is returned for operations submitted after Close.
var ErrClosed = errors.New("comm: process group closed")

// ProcessGroup is the collective communication API (paper Fig 1,
// bottom layer). Operations execute asynchronously in submission order.
type ProcessGroup interface {
	// Rank returns this participant's index.
	Rank() int
	// Size returns the number of participants.
	Size() int
	// AllReduce reduces data in place across all ranks. Every rank must
	// pass an equally-sized slice.
	AllReduce(data []float32, op ReduceOp) Work
	// Broadcast overwrites data on every rank with root's contents.
	Broadcast(data []float32, root int) Work
	// AllGather fills dst[r] with rank r's src on every rank. dst must
	// have Size() slices of len(src).
	AllGather(dst [][]float32, src []float32) Work
	// Barrier blocks all ranks until everyone arrives.
	Barrier() Work
	// Close shuts the group down; in-flight operations complete first.
	Close() error
}

// doneWork is an already-completed Work.
type doneWork struct{ err error }

func (w doneWork) Wait() error { return w.err }

// CompletedWork returns a Work that is already finished with err.
func CompletedWork(err error) Work { return doneWork{err: err} }

// pendingWork completes when its op finishes executing on the worker.
type pendingWork struct {
	done chan struct{}
	err  error
}

func newPendingWork() *pendingWork { return &pendingWork{done: make(chan struct{})} }

func (w *pendingWork) Wait() error {
	<-w.done
	return w.err
}

func (w *pendingWork) finish(err error) {
	w.err = err
	close(w.done)
}

// WaitAll waits on every handle and returns the first error.
func WaitAll(works ...Work) error {
	var first error
	for _, w := range works {
		if w == nil {
			continue
		}
		if err := w.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
