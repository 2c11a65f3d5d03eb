//go:build !amd64

package tensor

import "repro/internal/buffer"

// Without assembly bodies the vector prefixes are empty and the loops in
// matmul.go do all the work.

func hasAVX2() bool { return false }

func hasAVX512() bool { return false }

func mulAddTileVec(o, a []float32, first, rowStride, stride, k int, b []float32) bool { return false }

func mulAdd4Vec(o []float32, c *[4]float32, b0, b1, b2, b3 []float32) int { return 0 }

func mulAdd1Vec(o []float32, c float32, b []float32) int { return 0 }

func dotRowsVec(o, a, b []float32, m, k, n int) int { return 0 }

func matMulTransBVec(o, a, b []float32, m, k, n int, pool *buffer.Floats) int { return 0 }
