// Package buffer is the one buffer pool of the process: tensor storage
// (tensor.New, handed back by tensor.Tensor.Release), transport frames
// (the in-process Send/SendBytes copies and the TCP Recv/RecvBytes
// reads) and comm's and reduce's scratch and bucket flats all draw from
// it. A warm training step therefore goes back to the system allocator
// for no float storage: activations, gradient temporaries, frames and
// flats recycle the buffers the previous step handed back.
//
// A tensor's Get returns a zeroed buffer, exactly as make would; a
// frame's or a scratch buffer's (GetFloats, GetBytes) leaves clearing
// to the caller, who overwrites it in full. Who got a buffer owns it. Handing back is optional — a buffer that is dropped is garbage
// collected and the pool allocates its replacement, counted as a miss
// in buffer_pool_misses_total — but a buffer handed back must not be
// touched again. Under the race detector released buffers are
// overwritten with NaN (0xFF bytes), so a use-after-release breaks the
// bitwise suites instead of passing by luck, and the pool remembers
// the buffers it holds: handing one of them back a second time panics,
// which is what a release that missed shared storage does.
//
// The pool is package-level on purpose. Mesh decorators (sub-meshes,
// the benchmark's link model and tracer) forward the slices they are
// given, so buffers cross them unchanged; a Mesh method to release a
// buffer — or a RecvInto that comm called instead of Recv — would be
// promoted straight past every decorator that embeds the interface.
//
// It is size-classed (capacities are powers of two, so a buffer serves
// any request in its class), filled lazily (nothing is allocated until
// a Get misses, and a class holds only buffers that were once in use
// at the same time) and bounded (poolBudget bytes per element type;
// beyond it Put drops the buffer). Its occupancy is the
// buffer_pool_held_bytes gauge, to within publishStep a pool.
package buffer

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/metrics"
)

// poolBudget bounds the bytes one pool retains. Several times the
// frames a world of 8 has in flight on 25 MB buckets; a long-lived
// process whose frame sizes drift stops retaining at this point.
const poolBudget = 256 << 20

// maxPoolClass is the largest capacity class kept: 2^28 elements.
const maxPoolClass = 28

// publishStep is how far a pool's held bytes drift before the pool
// publishes them to buffer_pool_held_bytes, which every pool of an
// element type adds into: publishing on every Get and Put would have
// the ranks of one process contend on that one word.
const publishStep = 64 << 10

var (
	mHeld = metrics.Default().GaugeVec("buffer_pool_held_bytes",
		"Bytes the buffer pool holds for reuse, by element type.", "elem")
	mMisses = metrics.Default().CounterVec("buffer_pool_misses_total",
		"Buffer pool gets that found their size class empty and allocated, by element type.", "elem")
)

// slicePool is the pool for one element type.
type slicePool[T any] struct {
	elemBytes int
	budget    int // bytes retained at most
	// poison is what released elements are overwritten with under the
	// race detector.
	poison T
	gauge  metrics.Gauge // buffer_pool_held_bytes
	misses metrics.Counter

	mu   sync.Mutex
	free [maxPoolClass + 1][][]T // free[c] holds buffers of capacity 1<<c
	held int                     // bytes across free
	// published is the part of held the gauge holds.
	published int
	// idle is kept under the race detector only: the buffers in free,
	// by first element.
	idle map[*T]bool
}

var (
	shared   = NewFloats()
	bytePool = newPool[byte](1, poolBudget, 0xFF, "byte")
)

func newPool[T any](elemBytes, budget int, poison T, elem string) *slicePool[T] {
	p := &slicePool[T]{}
	p.init(elemBytes, budget, poison, elem)
	return p
}

func (p *slicePool[T]) init(elemBytes, budget int, poison T, elem string) {
	p.elemBytes, p.budget, p.poison = elemBytes, budget, poison
	p.gauge, p.misses = mHeld.With(elem), mMisses.With(elem)
	p.idle = map[*T]bool{}
}

// Floats is a pool of float32 buffers. The process shares one, which
// GetFloats and PutFloats draw from and a nil *Floats stands for; a
// training replica keeps one of its own (replica.Core), so that what one
// rank of an in-process world holds never decides whether another
// rank's Get finds a buffer: each rank's warm step then repeats its
// first exactly.
type Floats struct{ slicePool[float32] }

// NewFloats returns an empty pool.
func NewFloats() *Floats {
	f := &Floats{}
	f.init(4, poolBudget, float32(math.NaN()), "float32")
	return f
}

// Get returns a zeroed buffer of n elements from f.
func (f *Floats) Get(n int) []float32 { return f.or().get(n) }

// GetUncleared returns a buffer of n elements from f with unspecified
// contents, as GetFloats does from the shared pool: a scratch buffer its
// caller overwrites before reading need not pay for clearing.
func (f *Floats) GetUncleared(n int) []float32 { return f.or().take(n, false) }

// Put hands b, obtained from f, back to f for reuse. The caller must not
// use b afterwards.
func (f *Floats) Put(b []float32) { f.or().put(b) }

func (f *Floats) or() *Floats {
	if f == nil {
		return shared
	}
	return f
}

// GetFloats returns a buffer of n elements from the shared pool, with
// unspecified contents: a frame or a scratch buffer, which its caller
// overwrites in full, need not pay for clearing.
func GetFloats(n int) []float32 { return shared.take(n, false) }

// PutFloats hands a buffer obtained from GetFloats (or a mesh's Recv)
// back to the shared pool. The caller must not use b afterwards.
func PutFloats(b []float32) { shared.put(b) }

// GetBytes returns a buffer of n bytes with unspecified contents.
func GetBytes(n int) []byte { return bytePool.take(n, false) }

// PutBytes hands a buffer obtained from GetBytes or a mesh's RecvBytes
// back for reuse. The caller must not use b afterwards.
func PutBytes(b []byte) { bytePool.put(b) }

// get returns n zeroed elements.
func (p *slicePool[T]) get(n int) []T { return p.take(n, true) }

// take returns n elements, cleared if zero is set (a buffer the pool
// allocates is zero either way).
func (p *slicePool[T]) take(n int, zero bool) []T {
	if n == 0 {
		return nil
	}
	c := bits.Len(uint(n - 1)) // smallest c with 1<<c >= n
	if c > maxPoolClass {
		return make([]T, n)
	}
	p.mu.Lock()
	var b []T
	if last := len(p.free[c]) - 1; last >= 0 {
		b, p.free[c] = p.free[c][last], p.free[c][:last]
		p.resize(-p.elemBytes << c)
		if RaceEnabled {
			delete(p.idle, &b[0])
		}
	}
	p.mu.Unlock()
	if b == nil {
		p.misses.Inc()
		return make([]T, n, 1<<c)
	}
	b = b[:n]
	if zero {
		clear(b)
	}
	return b
}

func (p *slicePool[T]) put(b []T) {
	c := bits.Len(uint(cap(b))) - 1
	if cap(b) == 0 || cap(b) != 1<<c || c > maxPoolClass {
		return // not one of ours (or a sub-slice of one): leave it to the GC
	}
	b = b[:cap(b)]
	if RaceEnabled {
		for i := range b {
			b[i] = p.poison
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if RaceEnabled {
		if p.idle[&b[0]] {
			panic(fmt.Sprintf("buffer: a buffer of %d elements handed back twice", cap(b)))
		}
	}
	if size := p.elemBytes << c; p.held+size <= p.budget {
		p.free[c] = append(p.free[c], b)
		p.resize(size)
		if RaceEnabled {
			p.idle[&b[0]] = true
		}
	}
}

// resize moves the held bytes by d and publishes them once they have
// drifted publishStep from what the gauge holds. p.mu is held.
func (p *slicePool[T]) resize(d int) {
	p.held += d
	if drift := p.held - p.published; drift >= publishStep || drift <= -publishStep {
		p.gauge.Add(float64(drift))
		p.published = p.held
	}
}
