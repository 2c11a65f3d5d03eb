package tensor

// The Go side of matmul_amd64.s. Each Vec function does the leading part
// of its leaf's work that fills whole eight-float vectors and returns how
// many output elements that was, a multiple of eight (zero without AVX2);
// the caller's own loop finishes the rest. mulAddTileVec is the exception:
// its body masks the columns a vector does not fill, so it does all of the
// tile or none of it. Bounds are checked here: the assembly trusts its
// arguments.

// hasAVX2 reports whether the processor has AVX, AVX2 and F16C and the
// operating system saves the upper halves of the vector registers (CPUID,
// then XGETBV). The matmul and float stream bodies need only AVX; the
// binary16 encoder's 256-bit integer operations need AVX2 and its frame
// packing F16C, which every AVX2 processor has, as do the decoders'
// VCVTPH2PS and the landing, the tanh body's 256-bit shift AVX2 too, and
// one probe serves all thirteen leaves; hasAVX512 selects the fourteenth,
// mulAddTile's AVX-512 body, whose Go and AVX2 bodies are those leaves.
// The price: an AVX-only processor (Sandy Bridge, Ivy Bridge, Bulldozer,
// Piledriver) now runs every leaf as its Go loop.
func hasAVX2() bool

// hasAVX512 reports whether the processor has AVX-512F and the operating
// system saves the opmask registers and all 32 Z registers (CPUID, then
// XGETBV). It selects mulAddTile's body, and nothing else.
func hasAVX512() bool

// mulAddTileAVX512 is mulAddTile over four rows of n columns, with the
// coefficient of row r and step p at a[r*rs+p*ps]; n and k are positive.
//
//go:noescape
func mulAddTileAVX512(o *float32, n int, a *float32, rs, ps, k int, b *float32)

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

// mulAddTileVec does all of mulAddTile's work and reports true, or
// nothing and false without AVX-512.
func mulAddTileVec(o, a []float32, first, rowStride, stride, k int, b []float32) bool {
	if !useAVX512 {
		return false
	}
	n := len(o) / 4
	if n == 0 || k == 0 {
		return true
	}
	_, _ = o[4*n-1], b[k*n-1]
	_ = a[first+3*rowStride+(k-1)*stride]
	mulAddTileAVX512(&o[0], n, &a[first], rowStride, stride, k, &b[0])
	return true
}

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
