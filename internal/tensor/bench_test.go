package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkMatMulKernels times the three kernels at the shapes the
// benchmark's models use, under each body the machine has — the Go loops
// (go/), the AVX2 bodies (avx2/), and the same with the AVX-512 tile
// (avx512/) — and reports ns/mac, the unit of the benchmark ladder's
// tensor.*_ns_per_mac, so one run prints the table of every body. Each
// shape runs on a dense left operand, which is what the ladder measures,
// and on a half-zero one, which is what a layer after a ReLU gets:
//
//	go test -run '^$' -bench MatMulKernels ./internal/tensor
//
// The calls cycle through distinct left operands holding benchCoefficients
// between them. A half-zero operand met again on every call lets the
// branch predictor learn where its zeros are, which no training step
// offers: on the reference box a zero-skip scan that branches on each
// coefficient read 0.25 ns/mac on one repeated 16×32 operand and 0.62 on
// 64 of them. Each result is released, as a training step releases its
// temporaries, so the next call's output comes from the pool: allocating,
// clearing and collecting a fresh 128 KB output read twice the kernel's
// ns/mac at 64×10×512.
func BenchmarkMatMulKernels(b *testing.B) {
	const benchCoefficients = 1 << 16
	tileBodies(func(body string) {
		rng := rand.New(rand.NewSource(1))
		for _, kr := range matmulKernels {
			for _, s := range kr.shapes {
				for _, fill := range []int{fillDense, fillHalfZero} {
					m, k, n := s[0], s[1], s[2]
					xs := make([]*Tensor, (benchCoefficients+m*k-1)/(m*k))
					var y *Tensor
					for i := range xs {
						xs[i], y = newOperands(kr.transA, kr.transB, m, k, n)
						fillOperands(rng, fill, xs[i], y)
					}
					b.Run(fmt.Sprintf("%s/%s/%s/%dx%dx%d", body, kr.name, fillNames[fill], m, k, n), func(b *testing.B) {
						b.ReportAllocs()
						i := 0
						for b.Loop() {
							kr.kernel(xs[i], y).Release()
							i = (i + 1) % len(xs)
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*k*n), "ns/mac")
					})
				}
			}
		}
	})
}

// BenchmarkActivations times ReLU forward and backward and SumRows, the
// bias gradient, on a [64, 512] activation of N(0, 1) — half of it below
// zero, in random places, as the benchmark's compute MLP sees it — and
// reports ns/element:
//
//	go test -run '^$' -bench Activations -cpu 1 ./internal/tensor
func BenchmarkActivations(b *testing.B) {
	const rows, n = 64, 512
	rng := rand.New(rand.NewSource(19))
	x, g := RandN(rng, 1, rows, n), RandN(rng, 1, rows, n)
	for _, call := range []struct {
		name string
		run  func()
	}{
		{"relu", func() { Relu(x) }},
		{"relu-grad", func() { ReluGrad(x, g) }},
		{"sum-rows", func() { SumRows(g, n) }},
	} {
		b.Run(call.name, func(b *testing.B) {
			for b.Loop() {
				call.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*n), "ns/element")
		})
	}
}

// BenchmarkStreamKernels times the three stream leaves under every body
// at 64 Ki, 1 Mi and 3 Mi elements (in cache, one weight of the
// benchmark's wide model, all of its parameters), on two goroutines at
// once with operands of their own, the way two in-process ranks run them,
// and reports ns/element as one goroutine sees it:
//
//	go test -run '^$' -bench StreamKernels ./internal/tensor
func BenchmarkStreamKernels(b *testing.B) {
	const ranks = 2
	leaves := []struct {
		name string
		call func(p, g, v []float32)
	}{
		{"add", func(p, g, _ []float32) { AddFloats(p, g) }},
		{"scale", func(p, _, _ []float32) { ScaleFloats(p, 0.5) }},
		{"momentum", func(p, g, v []float32) { MomentumStep(p, g, v, 0.01, 0.9) }},
		// The runtime's memmove, for what the box streams: 8 bytes an
		// element against add's 12, scale's 8 and momentum's 20.
		{"copy", func(p, g, _ []float32) { copy(p, g) }},
	}
	kernelBodies(func(body string) {
		for _, leaf := range leaves {
			for _, n := range []int{64 << 10, 1 << 20, 3 << 20} {
				var ops [ranks][3][]float32
				for r := range ops {
					for i := range ops[r] {
						ops[r][i] = make([]float32, n)
					}
				}
				b.Run(fmt.Sprintf("%s/%s/%d", body, leaf.name, n), func(b *testing.B) {
					var wg sync.WaitGroup
					for r := range ops {
						wg.Add(1)
						go func() {
							defer wg.Done()
							for range b.N {
								leaf.call(ops[r][0], ops[r][1], ops[r][2])
							}
						}()
					}
					wg.Wait()
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/element")
				})
			}
		}
	})
}

// BenchmarkHalfEncode times HalfEncode under every body at comm's
// BenchmarkCodecKernels size (131 072 elements of N(0, 10⁻²), all normal
// halves, and of N(0, 10⁻⁴), straddling 2⁻¹⁴), building a frame with and
// without a residual, and the deq-only round trip the two-rank
// compressed AllReduce ends with; ns/element, one goroutine:
//
//	go test -run '^$' -bench HalfEncode -cpu 1 ./internal/tensor
func BenchmarkHalfEncode(b *testing.B) {
	const n = 1 << 17
	kernelBodies(func(body string) {
		for _, scale := range []struct {
			name  string
			sigma float64
		}{{"normal", 1e-2}, {"mixed", 1e-4}} {
			rng := rand.New(rand.NewSource(18))
			data, residual, deq := make([]float32, n), make([]float32, n), make([]float32, n)
			for i := range data {
				data[i] = float32(rng.NormFloat64() * scale.sigma)
			}
			frame := make([]byte, 2*n)
			for _, call := range []struct {
				name string
				run  func()
			}{
				{"encode", func() { HalfEncode(frame, data, nil, nil) }},
				{"encode+residual", func() { HalfEncode(frame, data, residual, nil) }},
				{"round-trip", func() { HalfEncode(nil, data, nil, deq) }},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", body, scale.name, call.name), func(b *testing.B) {
					clear(residual)
					for b.Loop() {
						call.run()
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/element")
				})
			}
		}
	})
}

// TestMatMulAllocatesOnlyItsOutput holds the kernels to one tensor's
// worth of allocations per call: no scratch escapes to the heap.
func TestMatMulAllocatesOnlyItsOutput(t *testing.T) {
	const m, k, n = 9, 17, 29
	want := testing.AllocsPerRun(100, func() { New(m, n) })
	rng := rand.New(rand.NewSource(1))
	for _, kr := range matmulKernels {
		x, y := newOperands(kr.transA, kr.transB, m, k, n)
		fillOperands(rng, fillDense, x, y)
		kr.bodies(func(body string) {
			if got := testing.AllocsPerRun(100, func() { kr.kernel(x, y) }); got != want {
				t.Errorf("%s/%s: %v allocations per call, a bare New(m, n) makes %v", body, kr.name, got, want)
			}
		})
	}
}

// BenchmarkGelu times GELU forward and backward under every body on the
// [16, 512] activation of the benchmark's BERT-shaped feed-forward block,
// N(0, 1) inputs, and reports ns/element:
//
//	go test -run '^$' -bench Gelu -cpu 1 ./internal/tensor
func BenchmarkGelu(b *testing.B) {
	const rows, n = 16, 512
	rng := rand.New(rand.NewSource(41))
	x, g := RandN(rng, 1, rows, n), RandN(rng, 1, rows, n)
	kernelBodies(func(body string) {
		for _, call := range []struct {
			name string
			run  func()
		}{
			{"forward", func() { Gelu(x) }},
			{"backward", func() { GeluGrad(x, g) }},
		} {
			b.Run(body+"/"+call.name, func(b *testing.B) {
				for b.Loop() {
					call.run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(rows*n), "ns/element")
			})
		}
	})
}
