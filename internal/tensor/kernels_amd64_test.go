package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// The differential test of matmul_amd64.s and stream_amd64.s: each leaf
// runs once with the assembly switched off and once with it on, over
// operands that differ only in which body wrote them, and every bit must
// agree — inside the slices (any NaN standing for any NaN, as in
// requireBitwise) and in the canaries on both sides of them, which
// neither body may touch.

const (
	canaryFloats = 8          // on each side of an operand
	canaryBits   = 0xC0DEC0DE // a finite float no kernel produces by accident
)

// operand is n floats that start off floats past a 32-byte boundary, with
// canaries before and after, so that every alignment the unaligned loads
// and stores can meet is met.
type operand struct {
	region []float32 // canaries, the slice, canaries
	s      []float32
}

func newOperand(n, off int) operand {
	buf := make([]float32, n+2*canaryFloats+16)
	skip := 0
	for (uintptr(unsafe.Pointer(&buf[skip+canaryFloats]))-uintptr(4*off))%32 != 0 {
		skip++
	}
	region := buf[skip : skip+n+2*canaryFloats]
	for i := range region {
		region[i] = math.Float32frombits(canaryBits)
	}
	return operand{region, region[canaryFloats : canaryFloats+n : canaryFloats+n]}
}

// clone returns an operand holding the same bits, off floats past a
// 32-byte boundary.
func (o operand) clone(off int) operand {
	c := newOperand(len(o.s), off)
	copy(c.s, o.s)
	return c
}

// kernelValues are what the leaves must treat exactly as the Go loops do:
// NaN, infinities, both zeros, subnormals, factors whose products
// overflow or vanish, and ordinary numbers between them.
var kernelValues = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	0, float32(math.Copysign(0, -1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39, -7e-42,
	math.MaxFloat32, -math.MaxFloat32, 3e38, -2.5e30, 1e-30, -3e-25,
}

func fillKernelValues(rng *rand.Rand, s []float32) {
	for i := range s {
		if rng.Intn(3) == 0 {
			s[i] = kernelValues[rng.Intn(len(kernelValues))]
		} else {
			s[i] = float32(rng.NormFloat64())
		}
	}
}

// runBothBodies takes the operands of one leaf call (the first is the
// output), runs the call under each body on its own copy, and compares
// every region, canaries included: the canary is no NaN, so
// requireBitwise holds it to its exact bits.
func runBothBodies(t *testing.T, what string, off int, operands []operand, call func(s [][]float32)) {
	t.Helper()
	var results [][]operand
	kernelBodies(func(string) {
		mine := make([]operand, len(operands))
		slices := make([][]float32, len(operands))
		for i, o := range operands {
			mine[i] = o.clone((off + 3*i) % 8)
			slices[i] = mine[i].s
		}
		call(slices)
		results = append(results, mine)
	})
	if len(results) < 2 {
		t.Skip("no AVX on this machine: the Go bodies are the only bodies")
	}
	for i := range operands {
		got, want := results[1][i].region, results[0][i].region
		requireBitwise(t, fmt.Sprintf("%s operand %d (%d canaries, the slice, %d canaries)", what, i, canaryFloats, canaryFloats),
			FromSlice(got, len(got)), FromSlice(want, len(want)))
	}
}

func TestAssemblyBodiesMatchGoBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			// mulAdd4: four rows of b picked out of six, in no order.
			o, b, c := newOperand(n, 0), newOperand(6*n, 0), newOperand(4, 0)
			fillKernelValues(rng, o.s)
			fillKernelValues(rng, b.s)
			fillKernelValues(rng, c.s)
			row := [4]int{rng.Intn(6), rng.Intn(6), rng.Intn(6), rng.Intn(6)}
			runBothBodies(t, fmt.Sprintf("mulAdd4 n=%d off=%d", n, off), off, []operand{o, b, c}, func(s [][]float32) {
				mulAdd4(s[0], (*[4]float32)(s[2]), s[1], &row)
			})

			// mulAdd1, with b longer than o as mulAddRows passes it.
			b = newOperand(n+off, 0)
			fillKernelValues(rng, b.s)
			coeff := c.s[0]
			runBothBodies(t, fmt.Sprintf("mulAdd1 n=%d off=%d", n, off), off, []operand{o, b}, func(s [][]float32) {
				mulAdd1(s[0], coeff, s[1])
			})
		}
	}
}

func TestAssemblyDotMatchesGoDot(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for n := 0; n <= 70; n++ {
		for k := 0; k <= 70; k++ {
			// Every n meets every offset and every row count around the
			// four-row kernel as k runs, and every k as n runs.
			m, off := (n*71+k)%10, (n+k)%8
			o, a, b := newOperand(m*n, 0), newOperand(m*k, 0), newOperand(n*k, 0)
			fillKernelValues(rng, o.s) // dotRows overwrites it
			fillKernelValues(rng, a.s)
			fillKernelValues(rng, b.s)
			runBothBodies(t, fmt.Sprintf("dotRows m=%d n=%d k=%d off=%d", m, n, k, off), off, []operand{o, a, b}, func(s [][]float32) {
				dotRows(s[0], s[1], s[2], m, k, n)
			})
		}
	}
}

func TestAssemblyStreamsMatchGoStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	lengths := []int{1<<20 + 13} // chunks of a bucket, then a tail
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			p, g, v, c := newOperand(n, 0), newOperand(n+off, 0), newOperand(n, 0), newOperand(2, 0)
			for _, o := range []operand{p, g, v, c} {
				fillKernelValues(rng, o.s)
			}
			lr, momentum := c.s[0], c.s[1]
			// src longer than dst, as a caller may pass it.
			runBothBodies(t, fmt.Sprintf("AddFloats n=%d off=%d", n, off), off, []operand{p, g}, func(s [][]float32) {
				AddFloats(s[0], s[1])
			})
			runBothBodies(t, fmt.Sprintf("ScaleFloats n=%d off=%d s=%v", n, off, lr), off, []operand{p}, func(s [][]float32) {
				ScaleFloats(s[0], lr)
			})
			runBothBodies(t, fmt.Sprintf("MomentumStep n=%d off=%d lr=%v momentum=%v", n, off, lr, momentum), off, []operand{p, g, v}, func(s [][]float32) {
				MomentumStep(s[0], s[1], s[2], lr, momentum)
			})
		}
	}
}
