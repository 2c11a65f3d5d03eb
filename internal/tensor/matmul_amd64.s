#include "textflag.h"

// AVX bodies of the three multiply-add leaves of matmul.go. The rule that
// keeps them bit-identical to the Go loops: a vector lane is one OUTPUT
// element, never a slice of the reduction index p. Every lane therefore
// holds its element's running sum and receives that element's products
// one at a time in ascending p, each product rounded by VMULPS before
// VADDPS adds it, exactly as float32(x*y) is rounded before += in Go.
// No fused multiply-add appears here (ci/nofma.sh greps for them): it
// would round once where the Go loops round twice.
//
// Every routine that touches a Y register ends in VZEROUPPER, because the
// Go code it returns to is legacy SSE and would pay for dirty upper
// halves on every scalar instruction. Loop heads are aligned to 32 bytes
// so that what the linker puts ahead of this package cannot move them
// across a fetch boundary.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID                // EAX: the highest standard leaf
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x38000000, CX // F16C, OSXSAVE and AVX
	CMPL CX, $0x38000000
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX       // leaf 7, EBX bit 5: AVX2
	JEQ  no
	XORL CX, CX
	XGETBV               // XCR0 bits 1 and 2: the OS saves XMM and YMM state
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func mulAdd4AVX(o *float32, n int, c *[4]float32, b0, b1, b2, b3 *float32)
//
// Lanes are o[j … j+7]; each adds c[0]·b0[j], c[1]·b1[j], c[2]·b2[j],
// c[3]·b3[j] in that order.
TEXT ·mulAdd4AVX(SB), NOSPLIT, $0-56
	MOVQ         o+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         c+16(FP), AX
	MOVQ         b0+24(FP), R8
	MOVQ         b1+32(FP), R9
	MOVQ         b2+40(FP), R10
	MOVQ         b3+48(FP), R11
	VBROADCASTSS 0(AX), Y0
	VBROADCASTSS 4(AX), Y1
	VBROADCASTSS 8(AX), Y2
	VBROADCASTSS 12(AX), Y3
	SHLQ         $2, CX
	XORQ         SI, SI
	PCALIGN      $32

loop:
	VMOVUPS (DI)(SI*1), Y4
	VMULPS  (R8)(SI*1), Y0, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R9)(SI*1), Y1, Y6
	VADDPS  Y6, Y4, Y4
	VMULPS  (R10)(SI*1), Y2, Y7
	VADDPS  Y7, Y4, Y4
	VMULPS  (R11)(SI*1), Y3, Y8
	VADDPS  Y8, Y4, Y4
	VMOVUPS Y4, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// func mulAdd1AVX(o *float32, n int, c float32, b *float32)
TEXT ·mulAdd1AVX(SB), NOSPLIT, $0-32
	MOVQ         o+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS c+16(FP), Y0
	MOVQ         b+24(FP), R8
	SHLQ         $2, CX
	XORQ         SI, SI
	PCALIGN      $32

loop:
	VMOVUPS (DI)(SI*1), Y1
	VMULPS  (R8)(SI*1), Y0, Y2
	VADDPS  Y2, Y1, Y1
	VMOVUPS Y1, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// The dot kernels. Lanes are eight output columns, i.e. eight rows of b,
// and lane t needs b[t][p] beside b[t+1][p]: an 8×8 block of b (eight
// rows, p … p+7) is loaded and transposed in registers, giving one
// vector per p, and each is folded in with a[p] broadcast, ascending.
// dot8x4AVX folds every such vector into four rows of a at once: the
// transpose is paid once per four rows, and four chains of dependent
// adds are in flight instead of one.
//
// Registers: AX = &a[0][p], CX = p still to do, R8 and R9 = &b[0][p] and
// &b[4][p], R10 = bytes per row of a and of b (both have k columns),
// R11 = 3·R10; rows 1–3 of a and rows 1–3, 5–7 of b are reached by adding
// R10, 2·R10, R11. Sums: Y0 (row 0 of a), Y1, Y12, Y13 (rows 1–3).

// TRANSPOSE loads four consecutive p of all eight rows of b, starting OFF
// bytes into the block. Each 16-byte load is four p of one row; rows t and
// t+4 share a register (low and high half), so one 4×4 transpose serves
// both halves and gives whole columns. Writing rXpY for b[X][p+Y], low
// half | high half:
//
//	Y6 = r0p0 r1p0 r0p1 r1p1 | r4p0 r5p0 r4p1 r5p1   (UNPCKLPS Y3, Y2)
//	Y7 = r0p2 r1p2 r0p3 r1p3 | r4p2 r5p2 r4p3 r5p3   (UNPCKHPS Y3, Y2)
//	Y8 = r2p0 r3p0 r2p1 r3p1 | r6p0 r7p0 r6p1 r7p1   (UNPCKLPS Y5, Y4)
//	Y9 = r2p2 r3p2 r2p3 r3p3 | r6p2 r7p2 r6p3 r7p3   (UNPCKHPS Y5, Y4)
//	Y2 = r0p0 r1p0 r2p0 r3p0 | r4p0 r5p0 r6p0 r7p0   (UNPCKLPD Y8, Y6)
//
// and Y3, Y4, Y5 likewise hold all eight rows at p+1, p+2, p+3.
#define TRANSPOSE(OFF) \
	VMOVUPS     OFF(R8), X2 \
	VMOVUPS     OFF(R8)(R10*1), X3 \
	VMOVUPS     OFF(R8)(R10*2), X4 \
	VMOVUPS     OFF(R8)(R11*1), X5 \
	VINSERTF128 $1, OFF(R9), Y2, Y2 \
	VINSERTF128 $1, OFF(R9)(R10*1), Y3, Y3 \
	VINSERTF128 $1, OFF(R9)(R10*2), Y4, Y4 \
	VINSERTF128 $1, OFF(R9)(R11*1), Y5, Y5 \
	VUNPCKLPS   Y3, Y2, Y6 \
	VUNPCKHPS   Y3, Y2, Y7 \
	VUNPCKLPS   Y5, Y4, Y8 \
	VUNPCKHPS   Y5, Y4, Y9 \
	VUNPCKLPD   Y8, Y6, Y2 \
	VUNPCKHPD   Y8, Y6, Y3 \
	VUNPCKLPD   Y9, Y7, Y4 \
	VUNPCKHPD   Y9, Y7, Y5

// GATHER builds in Y2 the vector b[0 … 7][p] for a single p from scalar
// loads; it finishes rows whose length is not a multiple of eight.
#define GATHER \
	VMOVSS      (R8), X2 \
	VINSERTPS   $0x10, (R8)(R10*1), X2, X2 \
	VINSERTPS   $0x20, (R8)(R10*2), X2, X2 \
	VINSERTPS   $0x30, (R8)(R11*1), X2, X2 \
	VMOVSS      (R9), X3 \
	VINSERTPS   $0x10, (R9)(R10*1), X3, X3 \
	VINSERTPS   $0x20, (R9)(R10*2), X3, X3 \
	VINSERTPS   $0x30, (R9)(R11*1), X3, X3 \
	VINSERTF128 $1, X3, Y2, Y2

// FOLD1 adds a[0][p+OFF/4] · COL to row 0's sums; COL is b[0 … 7][p+OFF/4].
#define FOLD1(OFF, COL) \
	VBROADCASTSS OFF(AX), Y10 \
	VMULPS       COL, Y10, Y10 \
	VADDPS       Y10, Y0, Y0

// FOLD4 does the same for rows 0 … 3 of a.
#define FOLD4(OFF, COL) \
	VBROADCASTSS OFF(AX), Y10 \
	VBROADCASTSS OFF(AX)(R10*1), Y11 \
	VMULPS       COL, Y10, Y10 \
	VMULPS       COL, Y11, Y11 \
	VADDPS       Y10, Y0, Y0 \
	VADDPS       Y11, Y1, Y1 \
	VBROADCASTSS OFF(AX)(R10*2), Y10 \
	VBROADCASTSS OFF(AX)(R11*1), Y11 \
	VMULPS       COL, Y10, Y10 \
	VMULPS       COL, Y11, Y11 \
	VADDPS       Y10, Y12, Y12 \
	VADDPS       Y11, Y13, Y13

// func dot8x4AVX(o *float32, n int, a *float32, k int, b *float32)
//
// o[r·n + t] = a[r·k:][:k] · b[t·k:][:k] for r = 0 … 3 and t = 0 … 7,
// each folded from +0 in ascending index order; k is positive.
TEXT ·dot8x4AVX(SB), NOSPLIT, $0-40
	MOVQ    o+0(FP), DI
	MOVQ    n+8(FP), DX
	MOVQ    a+16(FP), AX
	MOVQ    k+24(FP), CX
	MOVQ    b+32(FP), R8
	MOVQ    CX, R10
	SHLQ    $2, R10
	LEAQ    (R10)(R10*2), R11
	LEAQ    (R8)(R10*4), R9
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y12, Y12, Y12
	VXORPS  Y13, Y13, Y13
	CMPQ    CX, $8
	JLT     tail
	PCALIGN $32

block:
	TRANSPOSE(0)
	FOLD4(0, Y2)
	FOLD4(4, Y3)
	FOLD4(8, Y4)
	FOLD4(12, Y5)
	TRANSPOSE(16)
	FOLD4(16, Y2)
	FOLD4(20, Y3)
	FOLD4(24, Y4)
	FOLD4(28, Y5)
	ADDQ $32, AX
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  block

tail:
	TESTQ   CX, CX
	JEQ     done
	PCALIGN $32

one:
	GATHER
	FOLD4(0, Y2)
	ADDQ $4, AX
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNE  one

done:
	SHLQ    $2, DX
	LEAQ    (DX)(DX*2), BX
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (DI)(DX*1)
	VMOVUPS Y12, (DI)(DX*2)
	VMOVUPS Y13, (DI)(BX*1)
	VZEROUPPER
	RET

// func dot8x1AVX(o *float32, a *float32, k int, b *float32)
//
// dot8x4AVX for r = 0 alone: the rows left over when the number of rows
// is not a multiple of four.
TEXT ·dot8x1AVX(SB), NOSPLIT, $0-32
	MOVQ    o+0(FP), DI
	MOVQ    a+8(FP), AX
	MOVQ    k+16(FP), CX
	MOVQ    b+24(FP), R8
	MOVQ    CX, R10
	SHLQ    $2, R10
	LEAQ    (R10)(R10*2), R11
	LEAQ    (R8)(R10*4), R9
	VXORPS  Y0, Y0, Y0
	CMPQ    CX, $8
	JLT     tail
	PCALIGN $32

block:
	TRANSPOSE(0)
	FOLD1(0, Y2)
	FOLD1(4, Y3)
	FOLD1(8, Y4)
	FOLD1(12, Y5)
	TRANSPOSE(16)
	FOLD1(16, Y2)
	FOLD1(20, Y3)
	FOLD1(24, Y4)
	FOLD1(28, Y5)
	ADDQ $32, AX
	ADDQ $32, R8
	ADDQ $32, R9
	SUBQ $8, CX
	CMPQ CX, $8
	JGE  block

tail:
	TESTQ   CX, CX
	JEQ     done
	PCALIGN $32

one:
	GATHER
	FOLD1(0, Y2)
	ADDQ $4, AX
	ADDQ $4, R8
	ADDQ $4, R9
	DECQ CX
	JNE  one

done:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func hasAVX512() bool
//
// CPUID leaf 7 EBX bit 16 (AVX-512F), and XCR0 bits 1, 2, 5, 6 and 7: the
// operating system saves the XMM and YMM state, the opmask registers, the
// upper halves of Z0–Z15 and all of Z16–Z31.
TEXT ·hasAVX512(SB), NOSPLIT, $0-1
	XORL AX, AX
	CPUID                // EAX: the highest standard leaf
	CMPL AX, $7
	JLT  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x08000000, CX // OSXSAVE: XGETBV may be executed
	JEQ  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x10000, BX    // leaf 7, EBX bit 16: AVX-512F
	JEQ  no
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// The AVX-512 tile, shared by all three kernels: four output rows, a
// 16-float vector per lane group, the same lane rule as above. For each p
// the four coefficients are broadcast and each is multiplied by the row p
// of b that the tile's columns cover (VMULPS rounds the product); the add
// into a row's accumulators is merge-masked by VCMPPS NEQ_UQ of the
// coefficient against the zero argument. Against +0 (MatMul and
// MatMulTransA) a NaN coefficient is applied and a ±0 one leaves the sum
// exactly as it was, as if the term had been skipped; against NaN
// (MatMulTransB) every comparison is unordered, so true, and no term is
// skipped. The accumulators start from o and stay in registers for the
// whole k loop, so every element receives its products one p at a time,
// ascending.
//
// Registers: DI = &o[0][j], DX = bytes per row of o, R12 = 3·DX, R14 =
// bytes per row of b, SI = &a[0][0] (the first coefficient of row 0),
// R10 = bytes between two rows' coefficients, R11 = 3·R10, R13 = bytes
// between two p of one row, R9 = &b[0][j]; in the k loop AX = the
// coefficients of p, R8 = &b[p][j], CX = p still to do. Z0–Z3 hold b,
// Z4–Z7 the broadcast coefficients of rows 0–3, Z8–Z11 products, Z12 the
// zero argument, Z16–Z31 the sums (four vectors a row); K1 is the row's
// mask, K2 the columns of a narrow chunk.

// ROW4 adds the products of one coefficient with Z0–Z3 into the four
// sums of one row, where the coefficient compares unequal to Z12.
#define ROW4(COEF, C, S0, S1, S2, S3) \
	VBROADCASTSS COEF, C \
	VCMPPS       $4, Z12, C, K1 \
	VMULPS       Z0, C, Z8 \
	VMULPS       Z1, C, Z9 \
	VMULPS       Z2, C, Z10 \
	VMULPS       Z3, C, Z11 \
	VADDPS       Z8, S0, K1, S0 \
	VADDPS       Z9, S1, K1, S1 \
	VADDPS       Z10, S2, K1, S2 \
	VADDPS       Z11, S3, K1, S3

// ROW1 is ROW4 for a narrow chunk: one vector of b in Z0, one sum.
#define ROW1(COEF, C, S) \
	VBROADCASTSS COEF, C \
	VCMPPS       $4, Z12, C, K1 \
	VMULPS       Z0, C, Z8 \
	VADDPS       Z8, S, K1, S

// func mulAddTileAVX512(o *float32, n, os int, a *float32, rs, ps, k int, b *float32, bs int, zero float32)
//
// Row r of o (n floats, rows os apart) adds a[r·rs + p·ps]·b[p·bs + j]
// for p = 0 … k-1 to each o[r·os + j], skipping every p whose coefficient
// equals zero (+0 skips ±0 coefficients, NaN none); n and k are positive.
// Columns go 64 at a time, then the rest 16 at a time, the last chunk
// under a mask: no load or store leaves [0, n) of a row.
TEXT ·mulAddTileAVX512(SB), NOSPLIT, $0-76
	MOVQ         o+0(FP), DI
	MOVQ         n+8(FP), BX
	MOVQ         os+16(FP), DX
	MOVQ         a+24(FP), SI
	MOVQ         rs+32(FP), R10
	MOVQ         ps+40(FP), R13
	MOVQ         b+56(FP), R9
	MOVQ         bs+64(FP), R14
	SHRQ         $6, BX           // whole blocks of 64 columns
	SHLQ         $2, DX
	LEAQ         (DX)(DX*2), R12
	SHLQ         $2, R14
	SHLQ         $2, R10
	LEAQ         (R10)(R10*2), R11
	SHLQ         $2, R13
	VBROADCASTSS zero+72(FP), Z12
	TESTQ        BX, BX
	JEQ          narrow

wide:
	VMOVUPS (DI), Z16
	VMOVUPS 64(DI), Z17
	VMOVUPS 128(DI), Z18
	VMOVUPS 192(DI), Z19
	VMOVUPS (DI)(DX*1), Z20
	VMOVUPS 64(DI)(DX*1), Z21
	VMOVUPS 128(DI)(DX*1), Z22
	VMOVUPS 192(DI)(DX*1), Z23
	VMOVUPS (DI)(DX*2), Z24
	VMOVUPS 64(DI)(DX*2), Z25
	VMOVUPS 128(DI)(DX*2), Z26
	VMOVUPS 192(DI)(DX*2), Z27
	VMOVUPS (DI)(R12*1), Z28
	VMOVUPS 64(DI)(R12*1), Z29
	VMOVUPS 128(DI)(R12*1), Z30
	VMOVUPS 192(DI)(R12*1), Z31
	MOVQ    SI, AX
	MOVQ    R9, R8
	MOVQ    k+48(FP), CX
	PCALIGN $32

wideK:
	VMOVUPS (R8), Z0
	VMOVUPS 64(R8), Z1
	VMOVUPS 128(R8), Z2
	VMOVUPS 192(R8), Z3
	ROW4((AX), Z4, Z16, Z17, Z18, Z19)
	ROW4((AX)(R10*1), Z5, Z20, Z21, Z22, Z23)
	ROW4((AX)(R10*2), Z6, Z24, Z25, Z26, Z27)
	ROW4((AX)(R11*1), Z7, Z28, Z29, Z30, Z31)
	ADDQ    R13, AX
	ADDQ    R14, R8
	DECQ    CX
	JNE     wideK
	VMOVUPS Z16, (DI)
	VMOVUPS Z17, 64(DI)
	VMOVUPS Z18, 128(DI)
	VMOVUPS Z19, 192(DI)
	VMOVUPS Z20, (DI)(DX*1)
	VMOVUPS Z21, 64(DI)(DX*1)
	VMOVUPS Z22, 128(DI)(DX*1)
	VMOVUPS Z23, 192(DI)(DX*1)
	VMOVUPS Z24, (DI)(DX*2)
	VMOVUPS Z25, 64(DI)(DX*2)
	VMOVUPS Z26, 128(DI)(DX*2)
	VMOVUPS Z27, 192(DI)(DX*2)
	VMOVUPS Z28, (DI)(R12*1)
	VMOVUPS Z29, 64(DI)(R12*1)
	VMOVUPS Z30, 128(DI)(R12*1)
	VMOVUPS Z31, 192(DI)(R12*1)
	ADDQ    $256, DI
	ADDQ    $256, R9
	DECQ    BX
	JNE     wide

narrow:
	MOVQ n+8(FP), BX
	ANDQ $63, BX             // columns left, fewer than 64
	JEQ  done

chunk:
	MOVL      $0xFFFF, AX
	CMPQ      BX, $16
	JAE       whole
	MOVQ      BX, CX
	MOVL      $1, AX
	SHLL      CX, AX
	DECL      AX             // the low BX bits

whole:
	KMOVW     AX, K2
	VMOVUPS.Z (DI), K2, Z16
	VMOVUPS.Z (DI)(DX*1), K2, Z20
	VMOVUPS.Z (DI)(DX*2), K2, Z24
	VMOVUPS.Z (DI)(R12*1), K2, Z28
	MOVQ      SI, AX
	MOVQ      R9, R8
	MOVQ      k+48(FP), CX
	PCALIGN   $32

narrowK:
	VMOVUPS.Z (R8), K2, Z0
	ROW1((AX), Z4, Z16)
	ROW1((AX)(R10*1), Z5, Z20)
	ROW1((AX)(R10*2), Z6, Z24)
	ROW1((AX)(R11*1), Z7, Z28)
	ADDQ      R13, AX
	ADDQ      R14, R8
	DECQ      CX
	JNE       narrowK
	VMOVUPS   Z16, K2, (DI)
	VMOVUPS   Z20, K2, (DI)(DX*1)
	VMOVUPS   Z24, K2, (DI)(DX*2)
	VMOVUPS   Z28, K2, (DI)(R12*1)
	ADDQ      $64, DI
	ADDQ      $64, R9
	SUBQ      $16, BX
	JGT       chunk

done:
	VZEROUPPER
	RET

// UNPACK16 transposes, in each 128-bit lane, the four rows' four p held
// in Z0–Z3 (one row a register): Z0 comes out as the lane's rows at p,
// Z1 at p+1, Z2 at p+2, Z3 at p+3 — TRANSPOSE's unpacks at 512 bits.
#define UNPACK16 \
	VUNPCKLPS Z1, Z0, Z4 \
	VUNPCKHPS Z1, Z0, Z5 \
	VUNPCKLPS Z3, Z2, Z6 \
	VUNPCKHPS Z3, Z2, Z7 \
	VUNPCKLPD Z6, Z4, Z0 \
	VUNPCKHPD Z6, Z4, Z1 \
	VUNPCKLPD Z7, Z5, Z2 \
	VUNPCKHPD Z7, Z5, Z3

// func packAVX512(panel *float32, b *float32, k, rows, c int)
//
// panel[p·64 + r] = b[r·k + p] for r < rows and p < c: the rows of b, k
// floats apart, become the columns of a panel whose rows are 64 floats
// apart, which the tile reads as its b. rows is 16, 32, 48 or 64 and c
// positive. It only moves floats, so no value changes.
//
// A step takes four p of 16 rows: each 16-byte load is four p of one row,
// and rows t, t+4, t+8 and t+12 share a register, one per 128-bit lane
// (VINSERTF32X4), so the unpacks of TRANSPOSE, at 512 bits, transpose all
// four lanes at once: Z0 = b[0 … 15][p], Z1 the same at p+1, and so on.
// The last one to three p are loaded under masks instead, each row's
// into its own lane (K1–K4, c mod 4 floats from lane 0, 1, 2 or 3, a
// masked-off float being neither read nor able to fault), and only their
// vectors are stored.
//
// Registers: SI = &b[16·block][0], DI = &panel[0][16·block], BX = blocks
// of 16 rows still to do, R10 = bytes per row of b, R11 = 3·R10, DX = c
// mod 4; in the p loop R8, R9, R12 and R13 = &b[t][p] for rows t = 0, 4,
// 8 and 12 of the block, AX = &panel[p][16·block], CX = steps of four p
// still to do.
TEXT ·packAVX512(SB), NOSPLIT, $0-40
	MOVQ  panel+0(FP), DI
	MOVQ  b+8(FP), SI
	MOVQ  k+16(FP), R10
	MOVQ  rows+24(FP), BX
	MOVQ  c+32(FP), DX
	SHLQ  $2, R10
	LEAQ  (R10)(R10*2), R11
	SHRQ  $4, BX
	ANDQ  $3, DX
	MOVL  $1, AX
	MOVQ  DX, CX
	SHLL  CX, AX
	DECL  AX                 // the low c mod 4 bits
	KMOVW AX, K1
	SHLL  $4, AX
	KMOVW AX, K2
	SHLL  $4, AX
	KMOVW AX, K3
	SHLL  $4, AX
	KMOVW AX, K4

block:
	MOVQ  SI, R8
	LEAQ  (R8)(R10*4), R9
	LEAQ  (R9)(R10*4), R12
	LEAQ  (R12)(R10*4), R13
	MOVQ  DI, AX
	MOVQ  c+32(FP), CX
	SHRQ  $2, CX
	JEQ   tail
	PCALIGN $32

step:
	VMOVUPS      (R8), X0
	VMOVUPS      (R8)(R10*1), X1
	VMOVUPS      (R8)(R10*2), X2
	VMOVUPS      (R8)(R11*1), X3
	VINSERTF32X4 $1, (R9), Z0, Z0
	VINSERTF32X4 $1, (R9)(R10*1), Z1, Z1
	VINSERTF32X4 $1, (R9)(R10*2), Z2, Z2
	VINSERTF32X4 $1, (R9)(R11*1), Z3, Z3
	VINSERTF32X4 $2, (R12), Z0, Z0
	VINSERTF32X4 $2, (R12)(R10*1), Z1, Z1
	VINSERTF32X4 $2, (R12)(R10*2), Z2, Z2
	VINSERTF32X4 $2, (R12)(R11*1), Z3, Z3
	VINSERTF32X4 $3, (R13), Z0, Z0
	VINSERTF32X4 $3, (R13)(R10*1), Z1, Z1
	VINSERTF32X4 $3, (R13)(R10*2), Z2, Z2
	VINSERTF32X4 $3, (R13)(R11*1), Z3, Z3
	UNPACK16
	VMOVUPS      Z0, (AX)
	VMOVUPS      Z1, 256(AX)
	VMOVUPS      Z2, 512(AX)
	VMOVUPS      Z3, 768(AX)
	ADDQ         $16, R8
	ADDQ         $16, R9
	ADDQ         $16, R12
	ADDQ         $16, R13
	ADDQ         $1024, AX
	DECQ         CX
	JNE          step

tail:
	TESTQ     DX, DX
	JEQ       next
	VMOVUPS.Z (R8), K1, Z0
	VMOVUPS.Z (R8)(R10*1), K1, Z1
	VMOVUPS.Z (R8)(R10*2), K1, Z2
	VMOVUPS.Z (R8)(R11*1), K1, Z3
	VMOVUPS   -16(R9), K2, Z0
	VMOVUPS   -16(R9)(R10*1), K2, Z1
	VMOVUPS   -16(R9)(R10*2), K2, Z2
	VMOVUPS   -16(R9)(R11*1), K2, Z3
	VMOVUPS   -32(R12), K3, Z0
	VMOVUPS   -32(R12)(R10*1), K3, Z1
	VMOVUPS   -32(R12)(R10*2), K3, Z2
	VMOVUPS   -32(R12)(R11*1), K3, Z3
	VMOVUPS   -48(R13), K4, Z0
	VMOVUPS   -48(R13)(R10*1), K4, Z1
	VMOVUPS   -48(R13)(R10*2), K4, Z2
	VMOVUPS   -48(R13)(R11*1), K4, Z3
	UNPACK16
	VMOVUPS   Z0, (AX)
	CMPQ      DX, $2
	JLT       next
	VMOVUPS   Z1, 256(AX)
	JEQ       next
	VMOVUPS   Z2, 512(AX)

next:
	MOVQ R10, CX
	SHLQ $4, CX
	ADDQ CX, SI              // 16 rows on
	ADDQ $64, DI
	DECQ BX
	JNE  block
	VZEROUPPER
	RET
