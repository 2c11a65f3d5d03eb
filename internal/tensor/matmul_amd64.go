package tensor

import (
	"math"

	"repro/internal/buffer"
)

// The Go side of matmul_amd64.s. Each Vec function does the leading part
// of its leaf's work that fills whole eight-float vectors and returns how
// many output elements that was, a multiple of eight (zero without AVX2);
// the caller's own loop finishes the rest. The two AVX-512 ones are the
// exception: the tile masks the columns a vector does not fill, so
// mulAddTileVec does all of the tile or none of it, and matMulTransBVec
// does whole blocks of four rows and returns how many rows that was.
// Bounds are checked here: the assembly trusts its arguments.

// hasAVX2 reports whether the processor has AVX, AVX2 and F16C and the
// operating system saves the upper halves of the vector registers (CPUID,
// then XGETBV). The matmul and float stream bodies need only AVX; the
// binary16 encoder's 256-bit integer operations need AVX2 and its frame
// packing F16C, which every AVX2 processor has, as do the decoders'
// VCVTPH2PS and the landing, the tanh body's 256-bit shift AVX2 too, and
// one probe serves all thirteen leaves; hasAVX512 selects the AVX-512
// tile, whose Go and AVX2 bodies are those leaves, and the pack leaf that
// feeds it MatMulTransB's b.
// The price: an AVX-only processor (Sandy Bridge, Ivy Bridge, Bulldozer,
// Piledriver) now runs every leaf as its Go loop.
func hasAVX2() bool

// hasAVX512 reports whether the processor has AVX-512F and the operating
// system saves the opmask registers and all 32 Z registers (CPUID, then
// XGETBV). It selects the AVX-512 tile, which mulAddTile calls and
// MatMulTransB runs over packed panels of its b, and the pack leaf that
// builds them; nothing else.
func hasAVX512() bool

// mulAddTileAVX512 is mulAddTile over four rows of n columns, o's rows os
// floats apart and b's bs apart, with the coefficient of row r and step p
// at a[r*rs+p*ps]; a coefficient that compares equal to zero is skipped,
// so +0 skips the ±0 ones and NaN none. n and k are positive.
//
//go:noescape
func mulAddTileAVX512(o *float32, n, os int, a *float32, rs, ps, k int, b *float32, bs int, zero float32)

// packAVX512 stores b[r*k+p] in panel[p*panelRows+r] for r < rows and
// p < c; rows is 16, 32, 48 or 64 and c positive.
//
//go:noescape
func packAVX512(panel, b *float32, k, rows, c int)

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
	mulAddTileAVX512(&o[0], n, n, &a[first], rowStride, stride, k, &b[0], n, 0)
	return true
}

// A panel holds up to panelRows rows of MatMulTransB's b, transposed:
// row p of the panel is b[j … j+63][p], the tile's 64 columns. panelDepth
// bounds the p it holds, so that a panel is at most 32 KB.
const (
	panelRows  = 64
	panelDepth = 128
)

// noSkip is the tile's zero argument that skips no term.
var noSkip = float32(math.NaN())

// matMulTransBVec adds into o, which holds +0, the leading m &^ 3 rows of
// MatMulTransB's output and returns how many rows that was: zero without
// AVX-512, for fewer than four rows, and for an empty dimension. Each group of 64 rows of b is
// packed into a panel once per chunk of panelDepth p, and every block of
// four rows of a runs through the tile over it with no term skipped; an
// element's products still arrive one p at a time, ascending, from +0.
// The panel comes from pool with whatever it held and goes back to it.
func matMulTransBVec(o, a, b []float32, m, k, n int, pool *buffer.Floats) int {
	rows := m &^ 3
	if !useAVX512 || rows == 0 || k == 0 || n == 0 {
		return 0
	}
	_, _, _ = o[m*n-1], a[m*k-1], b[n*k-1]
	depth := min(k, panelDepth)
	panel := pool.GetUncleared(depth * panelRows)
	for j := 0; j < n; j += panelRows {
		w := min(panelRows, n-j)
		for p := 0; p < k; p += depth {
			c := min(depth, k-p)
			packPanel(panel, b[j*k+p:], k, w, c)
			for i := 0; i < rows; i += 4 {
				mulAddTileAVX512(&o[i*n+j], w, n, &a[i*k+p], k, 1, c, &panel[0], panelRows, noSkip)
			}
		}
	}
	pool.Put(panel)
	return rows
}

// packPanel stores b[r*k+p] in panel[p*panelRows+r] for the first w rows
// and c steps of b: whole blocks of 16 rows in assembly, the rows left
// over here.
func packPanel(panel, b []float32, k, w, c int) {
	w16 := w &^ 15
	if w16 > 0 {
		_, _ = panel[(c-1)*panelRows+w16-1], b[(w16-1)*k+c-1]
		packAVX512(&panel[0], &b[0], k, w16, c)
	}
	for r := w16; r < w; r++ {
		for p := range c {
			panel[p*panelRows+r] = b[r*k+p]
		}
	}
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
