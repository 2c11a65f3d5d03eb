package tensor

import "fmt"

// The three kernels below are register-tiled, and each computes exactly
// the sums of the naive triple loop it replaced (matmul_ref_test.go
// keeps those loops and compares bit patterns, any NaN standing for
// every NaN): an output element starts at +0 and adds its k products
// one at a time in ascending p.
// Tiling only changes how many output elements or how many consecutive
// p are in registers at once, never the order of additions into one
// element. Every product is written float32(x*y): the conversion rounds
// it before the add, so no architecture may fuse the two into one
// differently-rounded multiply-add.
//
// The loops in this file are the definition of every result. On amd64
// with AVX2 the three leaves that do the multiply-adds (mulAdd4, mulAdd1
// and dotRows) first hand the part of their work that fills whole
// eight-float vectors to matmul_amd64.s, where a lane is one output
// element and receives the same rounded products in the same order; what
// is left over, and everything on any other machine, runs here. MatMul
// and MatMulTransA hand each block of four output rows to mulAddTile,
// whose Go body is mulAddRows on each row; with AVX-512 it is one
// assembly tile that keeps the four rows' sums in registers over the
// whole k loop, so a row of b is loaded once for four rows of the output.
// With AVX-512, MatMulTransB runs the same tile too, with its zero-skip
// off: each group of 64 rows of b is packed once into a panel that holds
// them as columns, and every block of four rows of a runs over it
// (matmul_amd64.go). Its rows left over, and every other machine, run
// dotRows.

// useAVX says whether the leaves call their AVX2 bodies, and useAVX512
// whether mulAddTile calls its AVX-512 body. Both are read once from the
// processor and never set again outside this package's tests, which run
// every kernel suite under every body the machine has.
var (
	useAVX    = hasAVX2()
	useAVX512 = hasAVX512()
)

// MatMul returns the matrix product of a [m,k] and b [k,n] as [m,n].
// A term whose a factor is ±0 is skipped (a ReLU output row is half
// zeros), so 0·Inf contributes nothing rather than NaN.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v invalid", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := a.New(m, n)
	i := 0
	for ; i+4 <= m; i += 4 {
		mulAddTile(out.data[i*n:(i+4)*n], a.data, i*k, k, 1, k, b.data)
	}
	for ; i < m; i++ {
		mulAddRows(out.data[i*n:(i+1)*n], a.data, i*k, 1, k, b.data)
	}
	return out
}

// MatMulTransA returns aᵀ·b for a [k,m] and b [k,n] as [m,n], without
// materializing the transpose. Used in linear-layer weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v x %v invalid", a.shape, b.shape))
	}
	return MatMulTransAInto(a.New(a.shape[1], b.shape[1]), a, b)
}

// MatMulTransAInto computes aᵀ·b into dst, which must be [m,n] for a
// [k,m] and b [k,n] and share storage with neither, and returns dst; an
// aliased dst panics, naming the operand. What dst held is never read:
// each block of four output rows (then each row left over) is cleared,
// then finished before the next is touched, reading those columns of a.
// Like MatMul it skips a term whose a factor is ±0. This is how a weight
// gradient is written straight into its bucket slot.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[0] != b.shape[0] ||
		dst.Dim() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v x %v into %v invalid", a.shape, b.shape, dst.shape))
	}
	if dst.SharesStorage(a) {
		panic(fmt.Sprintf("tensor: MatMulTransAInto destination %v shares storage with a %v", dst.shape, a.shape))
	}
	if dst.SharesStorage(b) {
		panic(fmt.Sprintf("tensor: MatMulTransAInto destination %v shares storage with b %v", dst.shape, b.shape))
	}
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	i := 0
	for ; i+4 <= m; i += 4 {
		rows := dst.data[i*n : (i+4)*n]
		clear(rows)
		mulAddTile(rows, a.data, i, 1, m, k, b.data)
	}
	for ; i < m; i++ {
		row := dst.data[i*n : (i+1)*n]
		clear(row)
		mulAddRows(row, a.data, i, m, k, b.data)
	}
	return dst
}

// mulAddTile is mulAddRows for four output rows: o holds them, each
// len(o)/4 long, and row r adds a[first+r*rowStride+p*stride]·(row p of
// b) for p = 0, 1, …, k-1, skipping every ±0 coefficient. Its Go body
// (and the AVX2 one) runs mulAddRows on each row in turn; the AVX-512
// body (matmul_amd64.s) applies each p to all four rows before the next,
// which, each row being its own sums, is the same additions in the same
// order.
func mulAddTile(o, a []float32, first, rowStride, stride, k int, b []float32) {
	if mulAddTileVec(o, a, first, rowStride, stride, k, b) {
		return
	}
	n := len(o) / 4
	for r := range 4 {
		mulAddRows(o[r*n:(r+1)*n], a, first+r*rowStride, stride, k, b)
	}
}

// scanBlock is how many coefficients mulAddRows reads between two
// flushes of its pending list.
const scanBlock = 16

// mulAddRows adds a[first+p*stride]·(row p of b) to o for p = 0, 1, …,
// k-1 in ascending order, skipping every p whose coefficient is ±0. b
// holds k rows of len(o) elements. The next four non-zero coefficients
// are applied in one pass over o, so o is loaded and stored once per
// four multiply-adds; into any one element the additions still happen
// one p at a time.
//
// The scan never branches on one coefficient: after a ReLU half of them
// are zero, in random places, and such a branch is mispredicted half the
// time. It reads four at once. If all four are non-zero and none is
// pending they are applied there and then, which is every group of a
// dense operand, so on one the branch always goes the same way.
// Otherwise each is written to the end of the pending list, which grows
// by one only if it is non-zero; after scanBlock coefficients the list is
// applied four at a time and up to three stay pending.
func mulAddRows(o, a []float32, first, stride, k int, b []float32) {
	n := len(o)
	var c [scanBlock + 3]float32
	var row [scanBlock + 3]int
	found := 0
	for lo := 0; lo < k; lo += scanBlock {
		hi, at := min(lo+scanBlock, k), first+lo*stride
		p := lo
		for ; p+4 <= hi; p += 4 {
			v0, v1, v2, v3 := a[at], a[at+stride], a[at+2*stride], a[at+3*stride]
			at += 4 * stride
			nz0, nz1, nz2, nz3 := nonZero(v0), nonZero(v1), nonZero(v2), nonZero(v3)
			if nz0+nz1+nz2+nz3 == found+4 {
				c[0], c[1], c[2], c[3] = v0, v1, v2, v3
				row[0], row[1], row[2], row[3] = p, p+1, p+2, p+3
				mulAdd4(o, (*[4]float32)(c[:]), b, (*[4]int)(row[:]))
				continue
			}
			c[found], row[found] = v0, p
			found += nz0
			c[found], row[found] = v1, p+1
			found += nz1
			c[found], row[found] = v2, p+2
			found += nz2
			c[found], row[found] = v3, p+3
			found += nz3
		}
		for ; p < hi; p++ {
			v := a[at]
			at += stride
			c[found], row[found] = v, p
			found += nonZero(v)
		}
		t := 0
		for ; t+4 <= found; t += 4 {
			mulAdd4(o, (*[4]float32)(c[t:]), b, (*[4]int)(row[t:]))
		}
		c[0], c[1], c[2] = c[t], c[t+1], c[t+2]
		row[0], row[1], row[2] = row[t], row[t+1], row[t+2]
		found -= t
	}
	for t := 0; t < found; t++ {
		mulAdd1(o, c[t], b[row[t]*n:])
	}
}

// nonZero is 0 for ±0 and 1 for any other v, NaN included, computed
// without a jump.
func nonZero(v float32) int {
	z := 0
	if v != 0 {
		z = 1
	}
	return z
}

// mulAdd4 is o += c[0]·(row[0] of b), then c[1]·(row[1] of b) and so on,
// element by element. It is a function of its own, like dot4 below, so
// that its loop has the registers to itself.
func mulAdd4(o []float32, c *[4]float32, b []float32, row *[4]int) {
	n := len(o)
	b0, b1, b2, b3 := b[row[0]*n:][:n], b[row[1]*n:][:n], b[row[2]*n:][:n], b[row[3]*n:][:n]
	v := mulAdd4Vec(o, c, b0, b1, b2, b3)
	o = o[v:]
	b0, b1, b2, b3 = b0[v:][:len(o)], b1[v:][:len(o)], b2[v:][:len(o)], b3[v:][:len(o)]
	c0, c1, c2, c3 := c[0], c[1], c[2], c[3]
	for j := range o {
		s := o[j]
		s += float32(c0 * b0[j])
		s += float32(c1 * b1[j])
		s += float32(c2 * b2[j])
		s += float32(c3 * b3[j])
		o[j] = s
	}
}

// mulAdd1 is o += c·b.
func mulAdd1(o []float32, c float32, b []float32) {
	b = b[:len(o)]
	v := mulAdd1Vec(o, c, b)
	o = o[v:]
	b = b[v:][:len(o)]
	for j := range o {
		o[j] += float32(c * b[j])
	}
}

// MatMulTransB returns a·bᵀ for a [m,k] and b [n,k] as [m,n], without
// materializing the transpose. Used in linear-layer input gradients.
// No term is skipped: a zero factor opposite Inf or NaN yields NaN.
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransB shapes %v x %v invalid", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[0]
	out := a.New(m, n)
	i := matMulTransBVec(out.data, a.data, b.data, m, k, n, a.pool)
	dotRows(out.data[i*n:], a.data[i*k:], b.data, m-i, k, n)
	return out
}

// dotRows stores in o[i*n+j] the product of row i of a and row j of b,
// both k long, for all m rows of a and n rows of b. Four output elements
// are computed at once, each its own ascending-p chain, so the adds of
// one chain overlap the others' instead of waiting out the
// floating-point add latency.
func dotRows(o, a, b []float32, m, k, n int) {
	v := dotRowsVec(o, a, b, m, k, n)
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		orow := o[i*n : (i+1)*n]
		j := v
		for ; j+4 <= n; j += 4 {
			bs := b[j*k : (j+4)*k]
			dot4((*[4]float32)(orow[j:]), arow, bs[:k], bs[k:2*k], bs[2*k:3*k], bs[3*k:])
		}
		for ; j < n; j++ {
			orow[j] = dot1(arow, b[j*k:(j+1)*k])
		}
	}
}

// dot4 stores a·b0, a·b1, a·b2 and a·b3 in o.
func dot4(o *[4]float32, a, b0, b1, b2, b3 []float32) {
	b0, b1, b2, b3 = b0[:len(a)], b1[:len(a)], b2[:len(a)], b3[:len(a)]
	var s0, s1, s2, s3 float32
	for p, v := range a {
		s0 += float32(v * b0[p])
		s1 += float32(v * b1[p])
		s2 += float32(v * b2[p])
		s3 += float32(v * b3[p])
	}
	o[0], o[1], o[2], o[3] = s0, s1, s2, s3
}

// dot1 returns a·b, folded from +0 in ascending index order.
func dot1(a, b []float32) float32 {
	b = b[:len(a)]
	var s float32
	for p, v := range a {
		s += float32(v * b[p])
	}
	return s
}

// Transpose2D returns the transpose of a 2-D tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Dim() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D on shape %v", a.shape))
	}
	m, n := a.shape[0], a.shape[1]
	out := a.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

// Dot returns the inner product of two equally-sized tensors.
func Dot(a, b *Tensor) float32 {
	if len(a.data) != len(b.data) {
		panic("tensor: Dot size mismatch")
	}
	return dot1(a.data, b.data)
}
