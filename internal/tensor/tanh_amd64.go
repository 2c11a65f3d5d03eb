package tensor

// The Go side of tanh_amd64.s, in the shape of stream_amd64.go:
// tanhLeafVec does the leading multiple of four elements and returns how
// many that was (zero without AVX2); the loops in tanh.go finish the
// rest. The callers have already cut every slice to the first one's
// length; the assembly trusts its arguments.

// tanhLeavesAVX is op's leaf over n elements, n a positive multiple of
// four; grad is read by opGeluGrad alone.
//
//go:noescape
func tanhLeavesAVX(op int, dst *float32, n int, src, grad *float32)

func tanhLeafVec(op int, dst, src, g []float32) int {
	n := len(dst) &^ 3
	if !useAVX || n == 0 {
		return 0
	}
	var gp *float32
	if op == opGeluGrad {
		gp = &g[:n][0]
	}
	tanhLeavesAVX(op, &dst[0], n, &src[:n][0], gp)
	return n
}
