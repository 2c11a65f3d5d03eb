package tensor

// The Go side of matmul_amd64.s. Each Vec function does the leading part
// of its leaf's work that fills whole eight-float vectors and returns how
// many output elements that was, a multiple of eight (zero without AVX2);
// the caller's own loop finishes the rest. Bounds are checked here: the
// assembly trusts its arguments.

// hasAVX2 reports whether the processor has AVX, AVX2 and F16C and the
// operating system saves the upper halves of the vector registers (CPUID,
// then XGETBV). The matmul and float stream bodies need only AVX; the
// binary16 encoder's 256-bit integer operations need AVX2 and its frame
// packing F16C, which every AVX2 processor has, the tanh body's 256-bit
// shift AVX2 too, and one probe serves all ten leaves. The price: an
// AVX-only processor (Sandy Bridge, Ivy Bridge, Bulldozer, Piledriver)
// now runs every leaf as its Go loop.
func hasAVX2() bool

// mulAdd4AVX is mulAdd4 over n elements, n a positive multiple of eight.
//
//go:noescape
func mulAdd4AVX(o *float32, n int, c *[4]float32, b0, b1, b2, b3 *float32)

// mulAdd1AVX is mulAdd1 over n elements, n a positive multiple of eight.
//
//go:noescape
func mulAdd1AVX(o *float32, n int, c float32, b *float32)

// dot8x4AVX stores in o[r*n+t] the product of a[r*k:][:k] and b[t*k:][:k],
// folded from +0 in ascending index order, for r = 0 … 3 and t = 0 … 7;
// k is positive.
//
//go:noescape
func dot8x4AVX(o *float32, n int, a *float32, k int, b *float32)

// dot8x1AVX is dot8x4AVX for r = 0 alone.
//
//go:noescape
func dot8x1AVX(o *float32, a *float32, k int, b *float32)

func mulAdd4Vec(o []float32, c *[4]float32, b0, b1, b2, b3 []float32) int {
	n := len(o) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	mulAdd4AVX(&o[0], n, c, &b0[:n][0], &b1[:n][0], &b2[:n][0], &b3[:n][0])
	return n
}

func mulAdd1Vec(o []float32, c float32, b []float32) int {
	n := len(o) &^ 7
	if !useAVX || n == 0 {
		return 0
	}
	mulAdd1AVX(&o[0], n, c, &b[:n][0])
	return n
}

// dotRowsVec does dotRows' work for the leading columns it can take
// eight at a time, in every row. A group of eight rows of b is walked
// over all rows of a before the next group is touched, so b is read once.
func dotRowsVec(o, a, b []float32, m, k, n int) int {
	v := n &^ 7
	if !useAVX || v == 0 || k == 0 || m == 0 {
		return 0
	}
	o, a, b = o[:m*n], a[:m*k], b[:n*k]
	for j := 0; j < v; j += 8 {
		i := 0
		for ; i+4 <= m; i += 4 {
			dot8x4AVX(&o[i*n+j], n, &a[i*k], k, &b[j*k])
		}
		for ; i < m; i++ {
			dot8x1AVX(&o[i*n+j], &a[i*k], k, &b[j*k])
		}
	}
	return v
}
