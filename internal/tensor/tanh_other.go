//go:build !amd64

package tensor

// Without an assembly body the vector prefix is empty and the loops in
// tanh.go do all the work.

func tanhLeafVec(op int, dst, src, g []float32) int { return 0 }
