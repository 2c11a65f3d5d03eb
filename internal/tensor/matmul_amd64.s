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

// func hasAVX() bool
TEXT ·hasAVX(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  no
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
