package ckpt

import (
	"errors"
	"fmt"
	"sync"
)

// AsyncWriter moves checkpoint persistence off the training hot path:
// Submit enqueues an already-captured Snapshot (the tensor copy is the
// only work that must happen synchronously, inside Capture) and a
// single background goroutine performs the shard write, commit barrier,
// and manifest publication while training continues. The
// BenchmarkSyncVsAsyncSave benchmark quantifies the difference — the
// hot path pays only the memcpy, not the fsync.
//
// Saves execute strictly in submission order, so the directory's
// (step, generation) history stays monotonic. The queue is small and
// Submit blocks when it is full: backpressure, not silent dropping —
// every rank must persist the same checkpoint sequence or commits would
// wait forever for shards nobody queued.
//
// Submit and Close must be called from one goroutine (the
// training loop); the background goroutine is internal.
type AsyncWriter struct {
	w    *Writer
	jobs chan asyncJob
	done chan struct{}

	mu  sync.Mutex
	err error // first non-abandoned save error, sticky

	closed bool
}

type asyncJob struct {
	snap        *Snapshot
	rank, world int
	cancel      <-chan struct{}
}

// NewAsyncWriter starts the background persister for w. Call Close to
// drain and stop it.
func NewAsyncWriter(w *Writer) *AsyncWriter {
	a := &AsyncWriter{
		w:    w,
		jobs: make(chan asyncJob, 2),
		done: make(chan struct{}),
	}
	go a.loop()
	return a
}

func (a *AsyncWriter) loop() {
	defer close(a.done)
	for job := range a.jobs {
		err := a.w.Save(job.snap, job.rank, job.world, job.cancel)
		if err != nil && !errors.Is(err, ErrAbandoned) {
			a.mu.Lock()
			if a.err == nil {
				a.err = err
			}
			a.mu.Unlock()
		}
	}
}

// Err returns the first save error observed by the background
// goroutine (abandoned saves are not errors), or nil.
func (a *AsyncWriter) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Submit enqueues a save of rank's shard of snap, blocking only when
// the small queue is full. It returns the background goroutine's sticky
// error, if any — a failed checkpoint surfaces on the next Submit (or
// Sync) rather than vanishing.
func (a *AsyncWriter) Submit(snap *Snapshot, rank, world int, cancel <-chan struct{}) error {
	if a.closed {
		return fmt.Errorf("ckpt: AsyncWriter is closed")
	}
	a.jobs <- asyncJob{snap: snap, rank: rank, world: world, cancel: cancel}
	return a.Err()
}

// Close drains pending saves and stops the background goroutine,
// returning the sticky error, if any. Subsequent Submits fail.
func (a *AsyncWriter) Close() error {
	if a.closed {
		return a.Err()
	}
	a.closed = true
	close(a.jobs)
	<-a.done
	return a.Err()
}
