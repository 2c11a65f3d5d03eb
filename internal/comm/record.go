package comm

import (
	"sync"
	"time"
)

// Record is one collective a mesh-backed group completed, as its ring
// keeps it.
type Record struct {
	// Kind names the collective as its duration histogram labels it:
	// "all_gather_v", "reduce_scatter_v", "all_gather" or
	// "compressed_reduce_scatter_v"; an AllReduce, compressed or not, is
	// "allreduce" (its own family's label is the algorithm).
	Kind string
	// Elems is the length of the buffer it ran on, as the payload
	// histograms count it.
	Elems int
	// Start is its dispatch on the group's worker and End its
	// completion.
	Start, End time.Time
}

// ringSize is how many completed collectives a group's ring keeps.
const ringSize = 64

// ring is a group's record of its last ringSize completed collectives:
// the first cut of a flight recorder. Writing a record allocates
// nothing.
type ring struct {
	mu   sync.Mutex
	recs [ringSize]Record
	n    int // records ever written
}

// observe records a collective of kind over elems elements, dispatched
// at start, as completed now, and returns how long it took. The group
// records only successes, as its histograms do.
func (r *ring) observe(kind string, elems int, start time.Time) time.Duration {
	end := time.Now()
	r.mu.Lock()
	r.recs[r.n%ringSize] = Record{kind, elems, start, end}
	r.n++
	r.mu.Unlock()
	return end.Sub(start)
}

// records returns the ring's records, oldest first.
func (r *ring) records() []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Record, 0, min(r.n, ringSize))
	for i := max(0, r.n-ringSize); i < r.n; i++ {
		out = append(out, r.recs[i%ringSize])
	}
	return out
}

// Recorded returns the last collectives the group completed, up to 64,
// oldest first. Every rank submits the same collectives in the same
// order, so once the same ones have completed everywhere the ranks'
// rings hold the same collectives at the same positions; their stamps
// are each rank's own.
func (g *meshGroup) Recorded() []Record { return g.ring.records() }
