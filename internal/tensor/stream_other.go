//go:build !amd64

package tensor

// Without assembly bodies the vector prefixes are empty and the loops in
// stream.go do all the work.

func addVec(dst, src []float32) int { return 0 }

func scaleVec(dst []float32, s float32) int { return 0 }

func momentumVec(p, g, v []float32, lr, momentum float32) int { return 0 }
