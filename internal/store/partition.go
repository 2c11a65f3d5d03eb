package store

import (
	"errors"
	"sync"
)

// ErrPartitioned is returned by every operation of a Partitioned store
// while its partition is active — the injected analogue of a network
// partition between one worker and the rendezvous store.
var ErrPartitioned = errors.New("store: partitioned from the store")

// Partitioned wraps a Store with a switchable partition, giving fault
// injection a per-worker view of a shared store: while partitioned,
// every operation fails with ErrPartitioned and any operation already
// blocked inside the inner store unwinds promptly. Healing the
// partition restores plain delegation.
//
// The wrapper models an asymmetric failure precisely: other workers
// keep using the shared store untouched, while the partitioned worker
// can neither publish heartbeats nor observe generation changes —
// exactly the situation the lease-expiry detector exists for. The
// chaos harness (internal/chaos) hands each simulated worker its own
// Partitioned view of one shared InMem store.
type Partitioned struct {
	inner Store

	mu  sync.Mutex
	cut bool
	// cutCh is closed when the partition activates, releasing blocked
	// delegated calls; it is replaced on heal.
	cutCh chan struct{}
}

// NewPartitioned wraps inner with an initially healed partition.
func NewPartitioned(inner Store) *Partitioned {
	return &Partitioned{inner: inner, cutCh: make(chan struct{})}
}

// SetPartitioned activates or heals the partition. Activating releases
// every call currently blocked inside the inner store with
// ErrPartitioned. Idempotent.
func (p *Partitioned) SetPartitioned(cut bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cut == p.cut {
		return
	}
	p.cut = cut
	if cut {
		close(p.cutCh)
	} else {
		p.cutCh = make(chan struct{})
	}
}

// barrier returns an error if the partition is active, plus the channel
// that releases in-flight calls when it activates.
func (p *Partitioned) barrier() (<-chan struct{}, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cut {
		return nil, ErrPartitioned
	}
	return p.cutCh, nil
}

// result carries a delegated call's outcome across the release select.
type result struct {
	v   []byte
	n   int64
	b   bool
	err error
}

// deliver runs fn on a helper goroutine and returns its result, or
// ErrPartitioned as soon as the partition activates. The helper drains
// when the inner call resolves (bounded by the inner store's own
// timeout or close).
func (p *Partitioned) deliver(fn func() result) result {
	cutCh, err := p.barrier()
	if err != nil {
		return result{err: err}
	}
	ch := make(chan result, 1)
	go func() { ch <- fn() }()
	select {
	case r := <-ch:
		return r
	case <-cutCh:
		return result{err: ErrPartitioned}
	}
}

// Set delegates unless partitioned.
func (p *Partitioned) Set(key string, value []byte) error {
	r := p.deliver(func() result { return result{err: p.inner.Set(key, value)} })
	return r.err
}

// Get delegates unless partitioned; a partition activating mid-wait
// releases the caller with ErrPartitioned.
func (p *Partitioned) Get(key string) ([]byte, error) {
	r := p.deliver(func() result {
		v, err := p.inner.Get(key)
		return result{v: v, err: err}
	})
	return r.v, r.err
}

// GetCancel is Get honouring both the caller's cancel channel and the
// partition.
func (p *Partitioned) GetCancel(key string, cancel <-chan struct{}) ([]byte, error) {
	r := p.deliver(func() result {
		v, err := p.inner.GetCancel(key, cancel)
		return result{v: v, err: err}
	})
	return r.v, r.err
}

// Add delegates unless partitioned.
func (p *Partitioned) Add(key string, delta int64) (int64, error) {
	r := p.deliver(func() result {
		n, err := p.inner.Add(key, delta)
		return result{n: n, err: err}
	})
	return r.n, r.err
}

// Delete delegates unless partitioned.
func (p *Partitioned) Delete(key string) error {
	r := p.deliver(func() result { return result{err: p.inner.Delete(key)} })
	return r.err
}

// CompareAndSwap delegates unless partitioned.
func (p *Partitioned) CompareAndSwap(key string, old, new []byte) (bool, error) {
	r := p.deliver(func() result {
		ok, err := p.inner.CompareAndSwap(key, old, new)
		return result{b: ok, err: err}
	})
	return r.b, r.err
}

// Watch delegates unless partitioned; a partition activating mid-watch
// releases the caller.
func (p *Partitioned) Watch(key string, prev []byte) ([]byte, error) {
	r := p.deliver(func() result {
		v, err := p.inner.Watch(key, prev)
		return result{v: v, err: err}
	})
	return r.v, r.err
}

var _ Store = (*Partitioned)(nil)
