package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// BenchmarkMatMulKernels times the three kernels at the shapes the
// benchmark's models use, under the Go loops (go/) and, where the machine
// has them, the assembly bodies (asm/), and reports ns/mac, the unit of
// the benchmark ladder's tensor.*_ns_per_mac:
//
//	go test -run '^$' -bench MatMulKernels ./internal/tensor
func BenchmarkMatMulKernels(b *testing.B) {
	kernelBodies(func(body string) {
		rng := rand.New(rand.NewSource(1))
		for _, kr := range matmulKernels {
			for _, s := range benchShapes {
				m, k, n := s[0], s[1], s[2]
				x, y := newOperands(kr.transA, kr.transB, m, k, n)
				fillOperands(rng, fillDense, x, y)
				b.Run(fmt.Sprintf("%s/%s/%dx%dx%d", body, kr.name, m, k, n), func(b *testing.B) {
					b.ReportAllocs()
					for b.Loop() {
						kr.kernel(x, y)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*k*n), "ns/mac")
				})
			}
		}
	})
}

// BenchmarkStreamKernels times the three stream leaves under both bodies
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

// TestMatMulAllocatesOnlyItsOutput holds the kernels to one tensor's
// worth of allocations per call: no scratch escapes to the heap.
func TestMatMulAllocatesOnlyItsOutput(t *testing.T) {
	const m, k, n = 9, 17, 29
	want := testing.AllocsPerRun(100, func() { New(m, n) })
	rng := rand.New(rand.NewSource(1))
	for _, kr := range matmulKernels {
		x, y := newOperands(kr.transA, kr.transB, m, k, n)
		fillOperands(rng, fillDense, x, y)
		kernelBodies(func(body string) {
			if got := testing.AllocsPerRun(100, func() { kr.kernel(x, y) }); got != want {
				t.Errorf("%s/%s: %v allocations per call, a bare New(m, n) makes %v", body, kr.name, got, want)
			}
		})
	}
}
