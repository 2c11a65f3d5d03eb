package transport

import (
	"math"
	"math/bits"
	"sync"
)

// Frame buffers are recycled. The in-process Send/SendBytes copy the
// caller's payload into a buffer from the pool below, and the TCP
// Recv/RecvBytes read the payload into one; the buffer a Recv* returns
// belongs to the caller, who hands it back with PutFloats/PutBytes once
// the payload has been folded or copied out (comm's runSteps and
// exchange do). Handing back is optional — a buffer that is dropped is
// garbage collected and the pool allocates its replacement — but a
// buffer handed back must not be touched again: under the race detector
// released buffers are overwritten with NaN (0xFF bytes), so a
// use-after-release breaks the bitwise suites instead of passing by
// luck.
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
// beyond it Put drops the buffer).

// poolBudget bounds the bytes one pool retains. Several times the
// frames a world of 8 has in flight on 25 MB buckets; a long-lived
// process whose frame sizes drift stops retaining at this point.
const poolBudget = 256 << 20

// maxPoolClass is the largest capacity class kept: 2^28 elements.
const maxPoolClass = 28

// slicePool is the pool for one element type.
type slicePool[T any] struct {
	elemBytes int
	budget    int // bytes retained at most
	// poison is what released elements are overwritten with under the
	// race detector.
	poison T

	mu   sync.Mutex
	free [maxPoolClass + 1][][]T // free[c] holds buffers of capacity 1<<c
	held int                     // bytes across free
}

var (
	floatPool = slicePool[float32]{elemBytes: 4, budget: poolBudget, poison: float32(math.NaN())}
	bytePool  = slicePool[byte]{elemBytes: 1, budget: poolBudget, poison: 0xFF}
)

// GetFloats returns a buffer of n elements with unspecified contents.
func GetFloats(n int) []float32 { return floatPool.get(n) }

// PutFloats hands a buffer obtained from GetFloats or a mesh's Recv
// back for reuse. The caller must not use b afterwards.
func PutFloats(b []float32) { floatPool.put(b) }

// GetBytes returns a buffer of n bytes with unspecified contents.
func GetBytes(n int) []byte { return bytePool.get(n) }

// PutBytes hands a buffer obtained from GetBytes or a mesh's RecvBytes
// back for reuse. The caller must not use b afterwards.
func PutBytes(b []byte) { bytePool.put(b) }

func (p *slicePool[T]) get(n int) []T {
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
		p.held -= p.elemBytes << c
	}
	p.mu.Unlock()
	if b == nil {
		return make([]T, n, 1<<c)
	}
	return b[:n]
}

func (p *slicePool[T]) put(b []T) {
	c := bits.Len(uint(cap(b))) - 1
	if cap(b) == 0 || cap(b) != 1<<c || c > maxPoolClass {
		return // not one of ours (or a sub-slice of one): leave it to the GC
	}
	if RaceEnabled {
		b = b[:cap(b)]
		for i := range b {
			b[i] = p.poison
		}
	}
	p.mu.Lock()
	if size := p.elemBytes << c; p.held+size <= p.budget {
		p.free[c] = append(p.free[c], b)
		p.held += size
	}
	p.mu.Unlock()
}
