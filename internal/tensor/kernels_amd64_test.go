package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// The differential test of matmul_amd64.s, stream_amd64.s and
// tanh_amd64.s: each leaf runs once under every body the machine has (the
// assembly switched off, AVX2, AVX-512), over operands that differ only in
// which body wrote them, and every bit must agree with the Go body's —
// inside the slices (any NaN standing for any NaN, as in requireBitwise)
// and in the canaries on both sides of them, which no body may touch.

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

// runEveryBody takes the operands of one leaf call (the first is the
// output), runs the call under each body the leaf has (leafBodies) on its
// own copy, and compares
// every region, canaries included, with the Go body's: the canary is no
// NaN, so requireBitwise holds it to its exact bits.
func runEveryBody(t *testing.T, leafBodies func(func(string)), what string, off int, operands []operand, call func(s [][]float32)) {
	t.Helper()
	var bodies []string
	var results [][]operand
	leafBodies(func(body string) {
		mine := make([]operand, len(operands))
		slices := make([][]float32, len(operands))
		for i, o := range operands {
			mine[i] = o.clone((off + 3*i) % 8)
			slices[i] = mine[i].s
		}
		call(slices)
		bodies = append(bodies, body)
		results = append(results, mine)
	})
	if len(results) < 2 {
		t.Skip("no AVX2 on this machine: the Go bodies are the only bodies")
	}
	for b := 1; b < len(results); b++ {
		for i := range operands {
			got, want := results[b][i].region, results[0][i].region
			requireBitwise(t, fmt.Sprintf("%s/%s operand %d (%d canaries, the slice, %d canaries)", bodies[b], what, i, canaryFloats, canaryFloats),
				FromSlice(got, len(got)), FromSlice(want, len(want)))
		}
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
			runEveryBody(t, kernelBodies, fmt.Sprintf("mulAdd4 n=%d off=%d", n, off), off, []operand{o, b, c}, func(s [][]float32) {
				mulAdd4(s[0], (*[4]float32)(s[2]), s[1], &row)
			})

			// mulAdd1, with b longer than o as mulAddRows passes it.
			b = newOperand(n+off, 0)
			fillKernelValues(rng, b.s)
			coeff := c.s[0]
			runEveryBody(t, kernelBodies, fmt.Sprintf("mulAdd1 n=%d off=%d", n, off), off, []operand{o, b}, func(s [][]float32) {
				mulAdd1(s[0], coeff, s[1])
			})

			// mulAddTile onto four rows that already hold special values,
			// its coefficients laid out as MatMul's (rows k apart) and as
			// MatMulTransA's (rows one apart, p six apart), half of them ±0.
			k := 1 + (n+off)%19
			first := off % 3
			o, a, b := newOperand(4*n, 0), newOperand(6*k+3, 0), newOperand(k*n, 0)
			fillKernelValues(rng, o.s)
			fillKernelValues(rng, b.s)
			fillCoefficients(rng, a.s)
			for _, st := range [][2]int{{k, 1}, {1, 6}} {
				runEveryBody(t, tileBodies, fmt.Sprintf("mulAddTile n=%d k=%d off=%d strides=%v", n, k, off, st), off, []operand{o, a, b}, func(s [][]float32) {
					mulAddTile(s[0], s[1], first, st[0], st[1], k, s[2])
				})
			}
		}
	}
}

// TestMatMulTransBPanelBoundaries straddles what MatMulTransB's AVX-512
// path cuts its work into: the panel's 64-row groups of b (n around 64
// and 128, a last group of one row, of exactly 16 and of 15), the pack's
// 16-row blocks and four-p steps (k = 1 … 5), the panel's depth (k
// around panelDepth, and past twice it), and the rows left to dotRows
// (m = 3, 5, 9) beside the four-row blocks.
func TestMatMulTransBPanelBoundaries(t *testing.T) {
	transB := slices.IndexFunc(matmulKernels, func(kr matmulKernel) bool { return kr.name == "MatMulTransB" })
	rng := rand.New(rand.NewSource(17))
	for _, m := range []int{3, 4, 5, 8, 9} {
		for _, k := range []int{1, 2, 3, 4, 5, panelDepth - 1, panelDepth, panelDepth + 1, 2*panelDepth + 3} {
			for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 79, 80, 127, 129} {
				for fill := 0; fill < numFills; fill++ {
					checkKernel(t, rng, transB, m, k, n, fill)
				}
			}
		}
	}
}

// TestPackPanelMatchesTranspose holds MatMulTransB's panel pack to a
// scalar transpose, bit for bit: for every group width 1–64 (the 16-row
// blocks of the assembly and the rows after them), every depth 1–13 and
// around panelDepth (its four-p steps and the p after them), b's rows up
// to two floats longer than the depth, and every offset 0–7 of both
// operands, panel[p·64+r] = b[r·k+p] where r < w and p < c, the rest of
// the panel keeps what it held, b is untouched, and so are the canaries
// around both.
func TestPackPanelMatchesTranspose(t *testing.T) {
	if !useAVX512 {
		t.Skip("no AVX-512 on this machine: MatMulTransB packs no panel")
	}
	rng := rand.New(rand.NewSource(53))
	depths := []int{panelDepth - 1, panelDepth, panelDepth + 1}
	for c := 1; c <= 13; c++ {
		depths = append(depths, c)
	}
	for w := 1; w <= panelRows; w++ {
		for _, c := range depths {
			k := c + (w+c)%3
			off := (w + c) % 8
			panel, b := newOperand(c*panelRows, off), newOperand((w-1)*k+c, (off+3)%8)
			fillKernelValues(rng, panel.s)
			fillKernelValues(rng, b.s)
			want, wantB := panel.clone(0), b.clone(0)
			for r := range w {
				for p := range c {
					want.s[p*panelRows+r] = b.s[r*k+p]
				}
			}
			packPanel(panel.s, b.s, k, w, c)
			what := fmt.Sprintf("packPanel w=%d c=%d k=%d off=%d", w, c, k, off)
			for _, o := range [][2]operand{{panel, want}, {b, wantB}} {
				got, want := o[0].region, o[1].region
				requireBitwise(t, what+" (canaries, the slice, canaries)", FromSlice(got, len(got)), FromSlice(want, len(want)))
			}
		}
	}
}

// fillCoefficients fills s as fillKernelValues does and then sets half of
// it to +0 or −0, as a ReLU output's rows are.
func fillCoefficients(rng *rand.Rand, s []float32) {
	fillKernelValues(rng, s)
	for i := range s {
		if rng.Intn(2) == 0 {
			s[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
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
			runEveryBody(t, kernelBodies, fmt.Sprintf("dotRows m=%d n=%d k=%d off=%d", m, n, k, off), off, []operand{o, a, b}, func(s [][]float32) {
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
			runEveryBody(t, kernelBodies, fmt.Sprintf("AddFloats n=%d off=%d", n, off), off, []operand{p, g}, func(s [][]float32) {
				AddFloats(s[0], s[1])
			})
			runEveryBody(t, kernelBodies, fmt.Sprintf("ScaleFloats n=%d off=%d s=%v", n, off, lr), off, []operand{p}, func(s [][]float32) {
				ScaleFloats(s[0], lr)
			})
			runEveryBody(t, kernelBodies, fmt.Sprintf("MomentumStep n=%d off=%d lr=%v momentum=%v", n, off, lr, momentum), off, []operand{p, g, v}, func(s [][]float32) {
				MomentumStep(s[0], s[1], s[2], lr, momentum)
			})
		}
	}
}

// TestAssemblyTanhLeavesMatchGoLoops runs tanh, GELU and GELU's gradient
// under every body for every length 0–40 and 4099 (blocks of 64, then a
// tail of three) and every start offset 0–7 of every operand, on the
// special values and on inputs of three scales — around the branch
// points, and out to where tanh saturates.
func TestAssemblyTanhLeavesMatchGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	lengths := []int{4099}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			dst, x, g := newOperand(n, 0), newOperand(n, 0), newOperand(n, 0)
			fillKernelValues(rng, dst.s)
			fillKernelValues(rng, g.s)
			for i := range x.s {
				x.s[i] = float32(rng.NormFloat64() * []float64{0.5, 3, 40}[rng.Intn(3)])
				if rng.Intn(4) == 0 {
					x.s[i] = kernelValues[rng.Intn(len(kernelValues))]
				}
			}
			runEveryBody(t, kernelBodies, fmt.Sprintf("Tanh n=%d off=%d", n, off), off, []operand{dst, x}, func(s [][]float32) {
				tanhFloats(s[0], s[1])
			})
			runEveryBody(t, kernelBodies, fmt.Sprintf("Gelu n=%d off=%d", n, off), off, []operand{dst, x}, func(s [][]float32) {
				geluFloats(s[0], s[1])
			})
			runEveryBody(t, kernelBodies, fmt.Sprintf("GeluGrad n=%d off=%d", n, off), off, []operand{dst, x, g}, func(s [][]float32) {
				geluGradFloats(s[0], s[1], s[2])
			})
		}
	}
}

// halfValues are the inputs around every boundary of the binary16
// rounding rule — both sides of 2^-14, 2^-25, the subnormal ties, 65504
// and 65520 — which fillHalfValues mixes with kernelValues and with
// gradients at three scales: normal, straddling 2^-14, and saturating.
var halfValues = []float32{
	65504, 65519.996, 65520, -65520, 65536, 1e5, 1.0 / (1 << 14), 1.0/(1<<14) - 1.0/(1<<26),
	1.0 / (1 << 24), 1.0 / (1 << 25), -1.0 / (1 << 25), 1.0/(1<<25) - 1.0/(1<<49), 1.5 / (1 << 24),
	2.5 / (1 << 24), 1023.5 / (1 << 24), -1e-9, 1 + 1.0/(1<<11), 1 + 3.0/(1<<11), 2 - 1.0/2048,
}

func fillHalfValues(rng *rand.Rand, s []float32) {
	for i := range s {
		switch rng.Intn(6) {
		case 0:
			s[i] = kernelValues[rng.Intn(len(kernelValues))]
		case 1:
			s[i] = halfValues[rng.Intn(len(halfValues))]
		default:
			s[i] = float32(rng.NormFloat64() * []float64{1e-2, 1e-4, 4e4, 1}[rng.Intn(4)])
		}
	}
}

// frameCanary is the byte around a frame that neither body may write.
const frameCanary = 0xA5

// newFrame is n bytes starting off bytes past a 32-byte boundary, with
// canaryFloats·4 canary bytes on each side; it returns the whole region
// and the frame inside it.
func newFrame(n, off int) (region, frame []byte) {
	const pad = 4 * canaryFloats
	buf := make([]byte, n+2*pad+32)
	skip := 0
	for (uintptr(unsafe.Pointer(&buf[skip+pad]))-uintptr(off))%32 != 0 {
		skip++
	}
	region = buf[skip : skip+n+2*pad]
	for i := range region {
		region[i] = frameCanary
	}
	return region, region[pad : pad+n : pad+n]
}

// TestAssemblyHalfEncodeMatchesGoLoop: HalfEncode's two bodies write the
// same frame bytes, residuals and dequantized values and count the same
// drops, for every length 0–17 and 4099, every start offset 0–7 of every
// operand, and every calling convention — each of frame, residual and deq
// present or nil, and deq the data itself.
func TestAssemblyHalfEncodeMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	lengths := []int{4099}
	for n := 0; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	type conv struct{ frame, residual, deq, inPlace bool }
	var convs []conv
	for m := range 8 {
		convs = append(convs, conv{m&1 != 0, m&2 != 0, m&4 != 0, false})
	}
	convs = append(convs, conv{true, true, true, true}, conv{false, false, true, true})
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			data, residual, deq := newOperand(n, 0), newOperand(n, 0), newOperand(n, 0)
			fillHalfValues(rng, data.s)
			fillHalfValues(rng, residual.s)
			fillKernelValues(rng, deq.s)
			for _, c := range convs {
				what := fmt.Sprintf("HalfEncode n=%d off=%d %+v", n, off, c)
				type result struct {
					frame              []byte
					data, residual, dq operand
					dropped            int
				}
				var results []result
				kernelBodies(func(string) {
					r := result{data: data.clone(off), residual: residual.clone((off + 3) % 8), dq: deq.clone((off + 5) % 8)}
					var frame []byte
					var res, dq []float32
					if c.frame {
						r.frame, frame = newFrame(2*n, (2*off+1)%32)
					}
					if c.residual {
						res = r.residual.s
					}
					if c.deq {
						dq = r.dq.s
					}
					if c.inPlace {
						dq = r.data.s
					}
					r.dropped = HalfEncode(frame, r.data.s, res, dq)
					results = append(results, r)
				})
				if len(results) < 2 {
					t.Skip("no AVX2 on this machine: the Go loop is the only body")
				}
				want := results[0]
				for _, got := range results[1:] {
					if got.dropped != want.dropped {
						t.Fatalf("%s: dropped %d, Go loop %d", what, got.dropped, want.dropped)
					}
					if !bytes.Equal(got.frame, want.frame) {
						t.Fatalf("%s: frame (with canaries)\n got %x\nwant %x", what, got.frame, want.frame)
					}
					for _, o := range [][2]operand{{got.data, want.data}, {got.residual, want.residual}, {got.dq, want.dq}} {
						g, w := o[0].region, o[1].region
						requireBitwise(t, what, FromSlice(g, len(g)), FromSlice(w, len(w)))
					}
				}
			}
		}
	}
}

// TestAssemblyHalfDecodeMatchesGoLoop: HalfDecode, HalfDecodeAdd and
// HalfLand write the same bits under every body — NaN payloads too,
// which requireBitwise would let differ — and count the same drops, for
// every length 0–40 and 4099, every start offset 0–7 of frame and
// accumulator, frames of arbitrary bytes (every half, infinities and
// NaNs among them) and of encoded values, and accumulators of the
// special values; neither body touches the canaries around either
// operand.
func TestAssemblyHalfDecodeMatchesGoLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	lengths := []int{4099}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	leaves := []struct {
		name string
		call func(frame []byte, acc []float32) int
	}{
		{"HalfDecode", func(frame []byte, acc []float32) int { HalfDecode(frame, acc); return 0 }},
		{"HalfDecodeAdd", func(frame []byte, acc []float32) int { HalfDecodeAdd(frame, acc); return 0 }},
		{"HalfLand sum", func(frame []byte, acc []float32) int { return HalfLand(frame, acc, 1) }},
		{"HalfLand avg", func(frame []byte, acc []float32) int { return HalfLand(frame, acc, 0.5) }},
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			acc, peer := newOperand(n, 0), newOperand(n, 0)
			fillHalfValues(rng, acc.s)
			fillHalfValues(rng, peer.s)
			encoded := make([]byte, 2*n)
			HalfEncode(encoded, peer.s, nil, nil)
			arbitrary := make([]byte, 2*n)
			rng.Read(arbitrary)
			for _, src := range [][]byte{encoded, arbitrary} {
				for _, leaf := range leaves {
					what := fmt.Sprintf("%s n=%d off=%d", leaf.name, n, off)
					type result struct {
						frame   []byte
						acc     operand
						dropped int
					}
					var results []result
					kernelBodies(func(string) {
						r := result{acc: acc.clone(off)}
						var frame []byte
						r.frame, frame = newFrame(2*n, (2*off+3)%32)
						copy(frame, src)
						r.dropped = leaf.call(frame, r.acc.s)
						results = append(results, r)
					})
					if len(results) < 2 {
						t.Skip("no AVX2 on this machine: the Go loop is the only body")
					}
					want := results[0]
					for _, got := range results[1:] {
						if got.dropped != want.dropped {
							t.Fatalf("%s: dropped %d, Go loop %d", what, got.dropped, want.dropped)
						}
						if !bytes.Equal(got.frame, want.frame) {
							t.Fatalf("%s: frame (with canaries) changed\n got %x\nwant %x", what, got.frame, want.frame)
						}
						for i, w := range want.acc.region {
							if g := got.acc.region[i]; math.Float32bits(g) != math.Float32bits(w) {
								t.Fatalf("%s: element %d of canaries+acc+canaries = %#08x, Go loop %#08x", what, i, math.Float32bits(g), math.Float32bits(w))
							}
						}
					}
				}
			}
		}
	}
}
