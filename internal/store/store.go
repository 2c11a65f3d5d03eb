// Package store provides the rendezvous key-value store DDP process
// groups use to find each other at construction time (the paper's
// Section 3.3: "implemented using a rendezvous service, where the first
// arrival will block waiting until the last instance joins").
//
// Two implementations are provided: an in-memory store for
// single-process multi-goroutine training, and a TCP store (served by
// rank 0, like PyTorch's TCPStore) for multi-process training.
package store

import (
	"bytes"
	"errors"
	"sync"
	"time"
)

// ErrTimeout is returned when a blocking operation exceeds its deadline.
var ErrTimeout = errors.New("store: wait timed out")

// ErrClosed is returned by blocking operations when the store shuts down.
var ErrClosed = errors.New("store: closed")

// ErrCanceled is returned by cancellable blocking operations when their
// cancel channel closes before the operation completes.
var ErrCanceled = errors.New("store: operation canceled")

// Store is a process-shared key-value store with blocking waits.
type Store interface {
	// Set stores value under key and wakes any waiters.
	Set(key string, value []byte) error
	// Get blocks until key exists (subject to timeout) and returns it.
	Get(key string) ([]byte, error)
	// GetCancel is Get with early release: closing cancel makes it
	// return ErrCanceled instead of blocking until the store timeout; a
	// nil cancel is Get. Mesh construction threads its abort handle
	// through it so a worker that dies between rendezvous seal and mesh
	// build does not stall survivors on a Get for an address that will
	// never be published.
	GetCancel(key string, cancel <-chan struct{}) ([]byte, error)
	// Add atomically adds delta to the integer counter at key, creating
	// it at zero, and returns the new value. Used to assign ranks and
	// count arrivals during rendezvous.
	Add(key string, delta int64) (int64, error)
	// Delete removes key — both its value and, if it was used as a
	// counter, its counter state. Deleting a missing key is a no-op.
	// Elastic rendezvous garbage-collects dead generations with it.
	Delete(key string) error
	// CompareAndSwap sets key to new iff its current value equals old;
	// old == nil means "key must not exist yet". It reports whether the
	// swap happened. Elastic rendezvous uses it to fence generation
	// bumps: many workers may propose g+1, exactly one succeeds.
	CompareAndSwap(key string, old, new []byte) (bool, error)
	// Watch blocks until key holds a value different from prev (with
	// prev == nil, until key exists) and returns that value. It is the
	// store's change-notification primitive: rendezvous waiters use it
	// to learn about new generations without polling. Like Get, one
	// call waits at most the store's timeout, then fails with
	// ErrTimeout; a caller that means to wait longer calls again.
	Watch(key string, prev []byte) ([]byte, error)
}

// InMem is an in-process Store safe for concurrent use.
// The zero value is not usable; call NewInMem.
type InMem struct {
	mu       sync.Mutex
	cond     *sync.Cond
	values   map[string][]byte
	counters map[string]int64
	closed   bool
	// Timeout bounds each blocking Get or Watch call; zero means no
	// limit.
	Timeout time.Duration
}

// NewInMem returns an empty in-memory store with the given blocking
// timeout (zero for unbounded).
func NewInMem(timeout time.Duration) *InMem {
	s := &InMem{
		values:   make(map[string][]byte),
		counters: make(map[string]int64),
		Timeout:  timeout,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Set stores value under key.
func (s *InMem) Set(key string, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.values[key] = append([]byte(nil), value...)
	s.cond.Broadcast()
	return nil
}

// Get blocks until key exists and returns a copy of its value.
func (s *InMem) Get(key string) ([]byte, error) {
	return s.GetCancel(key, nil)
}

// GetCancel is Get with early release: closing cancel returns
// ErrCanceled instead of waiting out the store timeout.
func (s *InMem) GetCancel(key string, cancel <-chan struct{}) ([]byte, error) {
	var out []byte
	err := s.waitCancel(cancel, func() bool {
		v, ok := s.values[key]
		if !ok {
			return false
		}
		out = append([]byte(nil), v...)
		return true
	})
	return out, err
}

// Add atomically increments the counter at key by delta.
func (s *InMem) Add(key string, delta int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.counters[key] += delta
	v := s.counters[key]
	s.cond.Broadcast()
	return v, nil
}

// Delete removes key's value and counter state; missing keys are a
// no-op.
func (s *InMem) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.values, key)
	delete(s.counters, key)
	s.cond.Broadcast()
	return nil
}

// CompareAndSwap sets key to new iff its current value equals old
// (old == nil: key must not exist). Reports whether the swap happened.
func (s *InMem) CompareAndSwap(key string, old, new []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, ok := s.values[key]
	if old == nil {
		if ok {
			return false, nil
		}
	} else if !ok || !bytes.Equal(cur, old) {
		return false, nil
	}
	s.values[key] = append([]byte(nil), new...)
	s.cond.Broadcast()
	return true, nil
}

// Watch blocks until key holds a value different from prev and returns
// a copy of it.
func (s *InMem) Watch(key string, prev []byte) ([]byte, error) {
	var out []byte
	err := s.waitCancel(nil, func() bool {
		cur, ok := s.values[key]
		if !ok || (prev != nil && bytes.Equal(cur, prev)) {
			return false
		}
		out = append([]byte(nil), cur...)
		return true
	})
	return out, err
}

// waitCancel blocks until ready() (evaluated under s.mu) returns true,
// honouring the store timeout, shutdown and an optional cancel channel,
// whose closing wakes the sleeper with ErrCanceled.
func (s *InMem) waitCancel(cancel <-chan struct{}, ready func() bool) error {
	deadline := time.Time{}
	if s.Timeout > 0 {
		deadline = time.Now().Add(s.Timeout)
		// Wake sleepers periodically so the deadline is observed.
		timer := time.AfterFunc(s.Timeout, func() { s.cond.Broadcast() })
		defer timer.Stop()
	}
	if cancel != nil {
		// A waker turns the channel close into a Broadcast so the
		// cond.Wait below observes it; done reaps the waker on return.
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-cancel:
				s.mu.Lock()
				s.cond.Broadcast()
				s.mu.Unlock()
			case <-done:
			}
		}()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if ready() {
			return nil
		}
		if s.closed {
			return ErrClosed
		}
		if cancel != nil {
			select {
			case <-cancel:
				return ErrCanceled
			default:
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return ErrTimeout
		}
		s.cond.Wait()
	}
}

// Close wakes all blocked waiters with ErrClosed. Further waits on
// missing keys fail immediately; existing values remain readable.
func (s *InMem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.cond.Broadcast()
	return nil
}

var _ Store = (*InMem)(nil)
