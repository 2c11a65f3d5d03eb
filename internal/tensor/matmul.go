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
// with AVX the three leaves that do the multiply-adds (mulAdd4, mulAdd1
// and dotRows) first hand the part of their work that fills whole
// eight-float vectors to matmul_amd64.s, where a lane is one output
// element and receives the same rounded products in the same order; what
// is left over, and everything on any other machine, runs here.

// useAVX says whether the leaves call their assembly bodies. It is read
// once from the processor and never set again outside this package's
// tests, which run every kernel suite under both bodies.
var useAVX = hasAVX()

// MatMul returns the matrix product of a [m,k] and b [k,n] as [m,n].
// A term whose a factor is ±0 is skipped (a ReLU output row is half
// zeros), so 0·Inf contributes nothing rather than NaN.
func MatMul(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[1] != b.shape[0] {
		panic(fmt.Sprintf("tensor: MatMul shapes %v x %v invalid", a.shape, b.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		mulAddRows(out.data[i*n:(i+1)*n], a.data, i*k, 1, b.data)
	}
	return out
}

// MatMulTransA returns aᵀ·b for a [k,m] and b [k,n] as [m,n], without
// materializing the transpose. Used in linear-layer weight gradients.
func MatMulTransA(a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v x %v invalid", a.shape, b.shape))
	}
	return MatMulTransAInto(New(a.shape[1], b.shape[1]), a, b)
}

// MatMulTransAInto computes aᵀ·b into dst, which must be [m,n] for a
// [k,m] and b [k,n] and share storage with neither, and returns dst.
// What dst held is never read: each output row is cleared, then
// finished before row i+1 is touched, reading column i of a. Like
// MatMul it skips a term whose a factor is ±0. This is how a weight
// gradient is written straight into its bucket slot.
func MatMulTransAInto(dst, a, b *Tensor) *Tensor {
	if a.Dim() != 2 || b.Dim() != 2 || a.shape[0] != b.shape[0] ||
		dst.Dim() != 2 || dst.shape[0] != a.shape[1] || dst.shape[1] != b.shape[1] {
		panic(fmt.Sprintf("tensor: MatMulTransA shapes %v x %v into %v invalid", a.shape, b.shape, dst.shape))
	}
	m, n := a.shape[1], b.shape[1]
	for i := 0; i < m; i++ {
		row := dst.data[i*n : (i+1)*n]
		clear(row)
		mulAddRows(row, a.data, i, m, b.data)
	}
	return dst
}

// mulAddRows adds a[first+p*stride]·(row p of b) to o for p = 0, 1, … in
// ascending order, skipping every p whose coefficient is ±0. b holds
// rows of len(o) elements and a has a coefficient for each of them.
// The next four non-zero coefficients are applied in one pass over o, so
// o is loaded and stored once per four multiply-adds; into any one
// element the additions still happen one p at a time.
func mulAddRows(o, a []float32, first, stride int, b []float32) {
	n := len(o)
	var c [4]float32
	var row [4]int
	found := 0
	for p := 0; p*n < len(b); p++ {
		v := a[first+p*stride]
		if v == 0 {
			continue
		}
		c[found], row[found] = v, p
		if found++; found == 4 {
			mulAdd4(o, &c, b, &row)
			found = 0
		}
	}
	for t := 0; t < found; t++ {
		mulAdd1(o, c[t], b[row[t]*n:])
	}
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
	out := New(m, n)
	dotRows(out.data, a.data, b.data, m, k, n)
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
	out := New(n, m)
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
