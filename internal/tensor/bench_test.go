package tensor

import (
	"fmt"
	"math/rand"
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
