package replica

import (
	"fmt"
	"math"

	"repro/internal/comm"
	"repro/internal/nn"
)

// Hash folds the exact bits of every parameter, in order, into one
// 64-bit FNV-1a value: replicas agree on it only if they agree on every
// element bit for bit, so a one-ULP difference, a -0 for a +0, or two
// elements swapped all change it. (A float64 sum of the values, which
// this replaces, misses compensating and permuted differences.)
func Hash(params []*nn.Parameter) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range params {
		for _, v := range p.Value.Data() {
			bits := math.Float32bits(v)
			for i := 0; i < 4; i++ {
				h = (h ^ uint64(bits&0xff)) * 1099511628211
				bits >>= 8
			}
		}
	}
	return h
}

// Limbs splits v into four 16-bit limbs, each a float32 small enough to
// be exact: the collectives carry float32 only, and a 64-bit value
// rounded to one float32 keeps 24 bits of it.
func Limbs(v uint64) []float32 {
	out := make([]float32, 4)
	for i := range out {
		out[i] = float32(v >> (16 * i) & 0xffff)
	}
	return out
}

// FromLimbs reassembles a value split by Limbs.
func FromLimbs(limbs []float32) uint64 {
	var v uint64
	for i, l := range limbs {
		v |= uint64(l) << (16 * i)
	}
	return v
}

// Consistent is the replica-consistency check every mode ends with:
// each rank materializes its full parameters, hashes them (Hash), and
// the ranks AllGather the hashes exactly. It returns this rank's hash
// and whether all ranks reported the same one.
func Consistent(pg comm.ProcessGroup, r Replica) (uint64, bool, error) {
	if err := r.Materialize(); err != nil {
		return 0, false, fmt.Errorf("replica: materializing parameters: %w", err)
	}
	h := Hash(r.Parameters())
	gathered := make([][]float32, pg.Size())
	for i := range gathered {
		gathered[i] = make([]float32, 4)
	}
	if err := pg.AllGather(gathered, Limbs(h)).Wait(); err != nil {
		return h, false, fmt.Errorf("replica: gathering parameter hashes: %w", err)
	}
	for _, g := range gathered {
		if FromLimbs(g) != h {
			return h, false, nil
		}
	}
	return h, true, nil
}
