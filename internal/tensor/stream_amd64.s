#include "textflag.h"

// AVX2 bodies of the four stream leaves of stream.go, under the rules of
// matmul_amd64.s: a lane is one element, a product is rounded by VMULPS
// before VADDPS or VSUBPS takes it (no fused instruction; ci/nofma.sh
// greps), VZEROUPPER before every RET, loop heads aligned to 32 bytes.
// n is a positive multiple of eight everywhere.

// func addAVX(dst *float32, n int, src *float32)
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ    dst+0(FP), DI
	MOVQ    n+8(FP), CX
	MOVQ    src+16(FP), R8
	SHLQ    $2, CX
	XORQ    SI, SI
	PCALIGN $32

loop:
	VMOVUPS (DI)(SI*1), Y0
	VADDPS  (R8)(SI*1), Y0, Y0
	VMOVUPS Y0, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// func scaleAVX(dst *float32, n int, s float32)
TEXT ·scaleAVX(SB), NOSPLIT, $0-20
	MOVQ         dst+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y0
	SHLQ         $2, CX
	XORQ         SI, SI
	PCALIGN      $32

loop:
	VMULPS  (DI)(SI*1), Y0, Y1
	VMOVUPS Y1, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// func momentumAVX(p *float32, n int, grad, vel *float32, lr, momentum float32)
//
// Y2 = momentum·v, rounded; Y2 += g and is the new v; Y3 = lr·Y2,
// rounded; p -= Y3.
TEXT ·momentumAVX(SB), NOSPLIT, $0-40
	MOVQ         p+0(FP), DI
	MOVQ         n+8(FP), CX
	MOVQ         grad+16(FP), R8
	MOVQ         vel+24(FP), R9
	VBROADCASTSS lr+32(FP), Y0
	VBROADCASTSS momentum+36(FP), Y1
	SHLQ         $2, CX
	XORQ         SI, SI
	PCALIGN      $32

loop:
	VMULPS  (R9)(SI*1), Y1, Y2
	VADDPS  (R8)(SI*1), Y2, Y2
	VMOVUPS Y2, (R9)(SI*1)
	VMULPS  Y2, Y0, Y3
	VMOVUPS (DI)(SI*1), Y4
	VSUBPS  Y3, Y4, Y4
	VMOVUPS Y4, (DI)(SI*1)
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// BROADCAST fills all eight lanes of y with the 32-bit constant c.
#define BROADCAST(c, x, y) \
	MOVL         c, AX \
	VMOVD        AX, x \
	VPBROADCASTD x, y

// func halfEncodeAVX(frame *byte, data *float32, n int, residual, deq *float32) (dropped int)
//
// halfBits' rounding, the same operations, eight lanes at a time: Y0 is
// v (data, plus residual), Y1 its magnitude a, Y2 the power of two m, Y3
// the rounded sum s, Y4 q. A non-finite lane is zeroed in v and a, which
// is what the Go loop's drop does, and counted in Y14, one counter per
// lane. The frame's halves are VCVTPS2PH of q: q is a binary16 value
// already, so the conversion is exact under any rounding mode and yields
// halfBits' h with the sign — it packs bits, it rounds nothing. frame,
// residual and deq are tested per block; the branches go the same way
// every time.
TEXT ·halfEncodeAVX(SB), NOSPLIT, $0-48
	MOVQ frame+0(FP), DX
	MOVQ data+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ residual+24(FP), R9
	MOVQ deq+32(FP), R10
	BROADCAST($0x7fffffff, X6, Y6)  // magnitude mask
	BROADCAST($0x7f7fffff, X7, Y7)  // largest finite magnitude
	BROADCAST($0x477fe000, X8, Y8)  // maxHalfBits, 65504
	BROADCAST($0x7f800000, X9, Y9)  // expMask
	BROADCAST($0x06800000, X10, Y10) // 13<<23
	BROADCAST($0x3f000000, X11, Y11) // pointFive
	VPXOR   Y14, Y14, Y14
	SHLQ    $2, CX
	XORQ    SI, SI                   // offset into the floats
	XORQ    DI, DI                   // offset into frame, SI/2
	PCALIGN $32

loop:
	VMOVUPS (R8)(SI*1), Y0
	TESTQ   R9, R9
	JEQ     quantize
	VADDPS  (R9)(SI*1), Y0, Y0

quantize:
	VPAND    Y6, Y0, Y1 // a
	VPCMPGTD Y7, Y1, Y2 // non-finite
	VPSUBD   Y2, Y14, Y14
	VPANDN   Y0, Y2, Y0 // dropped: v = 0
	VPANDN   Y1, Y2, Y1 // and a = 0
	VPMINSD  Y8, Y1, Y1 // saturate
	VPAND    Y9, Y1, Y2
	VPADDD   Y10, Y2, Y2
	VPCMPGTD Y2, Y11, Y3 // below 2^-14
	VPMAXSD  Y11, Y2, Y2 // m
	VPSRLD   $31, Y3, Y3
	VPOR     Y3, Y1, Y1  // the half-up nudge
	VADDPS   Y2, Y1, Y3  // s = a + m, rounded
	VSUBPS   Y2, Y3, Y4  // s - m, exact
	VPANDN   Y0, Y6, Y5  // the sign of v
	VPOR     Y5, Y4, Y4  // q
	TESTQ    DX, DX
	JEQ      noframe
	VCVTPS2PH $0, Y4, X3 // h, exactly
	VMOVDQU   X3, (DX)(DI*1)

noframe:
	TESTQ   R9, R9
	JEQ     nores
	VSUBPS  Y4, Y0, Y1
	VMOVUPS Y1, (R9)(SI*1)

nores:
	TESTQ   R10, R10
	JEQ     nodeq
	VMOVUPS Y4, (R10)(SI*1)

nodeq:
	ADDQ $16, DI
	ADDQ $32, SI
	CMPQ SI, CX
	JLT  loop

	// dropped is the sum of the eight lane counters.
	VEXTRACTI128 $1, Y14, X0
	VPADDD       X0, X14, X0
	VPSHUFD      $0x4e, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xb1, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVQ         AX, dropped+40(FP)
	VZEROUPPER
	RET
