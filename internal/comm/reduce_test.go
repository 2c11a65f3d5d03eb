package comm

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/testutil"
)

// TestParallelReduceMatchesSerial pins the determinism claim of the
// chunked fan-out: elementwise ops over disjoint chunks produce the
// same bits no matter how the slice was split.
func TestParallelReduceMatchesSerial(t *testing.T) {
	const n = reduceParallelThreshold * 3 / 2 // force the parallel path
	rng := testutil.SeededRand(t)
	src := make([]float32, n)
	base := make([]float32, n)
	for i := range src {
		src[i] = rng.Float32()*2 - 1
		base[i] = rng.Float32()*2 - 1
	}
	for _, op := range []ReduceOp{Sum, Avg, Prod, Min, Max} {
		serial := append([]float32(nil), base...)
		parallel := append([]float32(nil), base...)
		reduceRange(serial, src, op)
		reduceInto(parallel, src, op)
		for i := range serial {
			if serial[i] != parallel[i] {
				t.Fatalf("op %v: parallel fold diverges at %d: %v vs %v", op, i, parallel[i], serial[i])
			}
		}
	}
}

// TestReduceIntoOddLengthsMatchPlainLoop folds buffers whose length is
// not a multiple of eight on both sides of reduceParallelThreshold, so
// that the serial path ends in a scalar tail and the parallel path's
// chunk boundaries land inside a vector, and holds every op to a plain
// loop over the whole slice, bit for bit.
func TestReduceIntoOddLengthsMatchPlainLoop(t *testing.T) {
	plain := map[ReduceOp]func(d, s float32) float32{
		Sum:  func(d, s float32) float32 { return d + s },
		Avg:  func(d, s float32) float32 { return d + s },
		Prod: func(d, s float32) float32 { return d * s },
		Min: func(d, s float32) float32 {
			if s < d {
				return s
			}
			return d
		},
		Max: func(d, s float32) float32 {
			if s > d {
				return s
			}
			return d
		},
	}
	rng := testutil.SeededRand(t)
	for _, n := range []int{1, 7, 9, reduceParallelThreshold - 3, reduceParallelThreshold + 5, 3*reduceParallelThreshold + 13} {
		src := make([]float32, n)
		base := make([]float32, n)
		for i := range src {
			src[i] = rng.Float32()*2 - 1
			base[i] = rng.Float32()*2 - 1
		}
		for op, f := range plain {
			got := append([]float32(nil), base...)
			reduceInto(got, src, op)
			for i := range got {
				if want := f(base[i], src[i]); math.Float32bits(got[i]) != math.Float32bits(want) {
					t.Fatalf("n=%d op %v: element %d is %v, the plain loop gives %v", n, op, i, got[i], want)
				}
			}
		}
	}
}

func TestReduceIntoSmallStaysSerialAndCorrect(t *testing.T) {
	dst := []float32{1, 2, 3}
	reduceInto(dst, []float32{10, 20, 30}, Sum)
	if dst[0] != 11 || dst[1] != 22 || dst[2] != 33 {
		t.Fatalf("small reduce wrong: %v", dst)
	}
}

// BenchmarkReduceIntoCrossover measures the serial fold against the
// chunked parallel one across sizes bracketing
// reduceParallelThreshold — the evidence behind that constant. Sizes
// below the threshold make reduceInto take the serial path, so those
// pairs should tie; above it the parallel rows should win.
func BenchmarkReduceIntoCrossover(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20, 1 << 22} {
		dst := make([]float32, n)
		src := make([]float32, n)
		for i := range src {
			src[i] = float32(i%97) * 0.5
		}
		b.Run(fmt.Sprintf("serial/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				reduceRange(dst, src, Sum)
			}
		})
		b.Run(fmt.Sprintf("auto/%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				reduceInto(dst, src, Sum)
			}
		})
	}
}
