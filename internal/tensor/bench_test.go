package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkMatMulKernels times the three kernels at the shapes the
// benchmark's models use and reports ns/mac, the unit of the benchmark
// ladder's tensor.*_ns_per_mac:
//
//	go test -run '^$' -bench MatMulKernels ./internal/tensor
func BenchmarkMatMulKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, kr := range matmulKernels {
		for _, s := range benchShapes {
			m, k, n := s[0], s[1], s[2]
			x, y := newOperands(kr.transA, kr.transB, m, k, n)
			fillOperands(rng, fillDense, x, y)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", kr.name, m, k, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					kr.kernel(x, y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m*k*n), "ns/mac")
			})
		}
	}
}

// TestMatMulAllocatesOnlyItsOutput holds the kernels to one tensor's
// worth of allocations per call: no scratch escapes to the heap.
func TestMatMulAllocatesOnlyItsOutput(t *testing.T) {
	const m, k, n = 9, 17, 13
	want := testing.AllocsPerRun(100, func() { New(m, n) })
	rng := rand.New(rand.NewSource(1))
	for _, kr := range matmulKernels {
		x, y := newOperands(kr.transA, kr.transB, m, k, n)
		fillOperands(rng, fillDense, x, y)
		if got := testing.AllocsPerRun(100, func() { kr.kernel(x, y) }); got != want {
			t.Errorf("%s: %v allocations per call, a bare New(m, n) makes %v", kr.name, got, want)
		}
	}
}
