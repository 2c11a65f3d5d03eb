package comm

import (
	"runtime"
	"sync"

	"repro/internal/tensor"
)

// reduceParallelThreshold is the element count from which reduceInto
// fans the fold out across goroutines. Below it the goroutine
// create/join overhead exceeds the arithmetic saved. The crossover is
// measured by BenchmarkReduceIntoCrossover, run with this constant
// lowered so that every size fans out; the Sum fold (tensor.AddFloats,
// eight lanes) on the two-core reference box, serial against fanned-out:
// 128 Ki elements 14 against 38 µs, 256 Ki 48 against 82, 512 Ki 170
// against 162, 1 Mi 340 against 260–400, 4 Mi 1425 against 830. The
// serial fold stays ahead for as long as both operands sit in one core's
// cache, and the two meet here. The benchmark's wide row folds half a
// bucket, 512.5 Ki elements, at a time and so fans out; the shaped rows
// fold 128 Ki.
const reduceParallelThreshold = 512 << 10

// reduceInto folds src into dst elementwise under op (Avg folds as Sum;
// the caller scales at the end). Large slices are folded in parallel
// chunks: the operation is elementwise with disjoint chunks, so the
// result is bitwise-independent of the split — parallelism never
// perturbs the cross-rank determinism the collectives guarantee. The
// local fold sits on the collective hot path (every ring/tree step
// runs one), so this is where big buckets earn back multiple cores.
func reduceInto(dst, src []float32, op ReduceOp) {
	n := len(dst)
	if n < reduceParallelThreshold {
		reduceRange(dst, src, op)
		return
	}
	// Cap the fan-out so each worker keeps a meaningful chunk.
	workers := runtime.GOMAXPROCS(0)
	if max := n / (reduceParallelThreshold / 2); workers > max {
		workers = max
	}
	if workers <= 1 {
		reduceRange(dst, src, op)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := chunkBounds(n, workers, w)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			reduceRange(dst[lo:hi], src[lo:hi], op)
		}(lo, hi)
	}
	wg.Wait()
}

// reduceRange is the serial elementwise fold underlying reduceInto.
func reduceRange(dst, src []float32, op ReduceOp) {
	switch op {
	case Sum, Avg:
		tensor.AddFloats(dst, src)
	case Prod:
		for i := range dst {
			dst[i] *= src[i]
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic("comm: unknown reduce op")
	}
}
