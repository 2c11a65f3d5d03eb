#include "textflag.h"

// AVX2 bodies of the stream leaves of stream.go, under the rules of
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

// HALFCONSTS loads the constants QUANTIZE reads: Y6 the magnitude mask,
// Y7 the largest finite magnitude, Y8 maxHalfBits (65504), Y9 expMask,
// Y10 13<<23 and Y11 pointFive. It clears Y14, QUANTIZE's drop counters.
#define HALFCONSTS \
	BROADCAST($0x7fffffff, X6, Y6) \
	BROADCAST($0x7f7fffff, X7, Y7) \
	BROADCAST($0x477fe000, X8, Y8) \
	BROADCAST($0x7f800000, X9, Y9) \
	BROADCAST($0x06800000, X10, Y10) \
	BROADCAST($0x3f000000, X11, Y11) \
	VPXOR    Y14, Y14, Y14

// QUANTIZE is halfQuantize on the eight lanes of Y0, v, with halfBits'
// operations: Y1 is v's magnitude a, Y2 the power of two m, Y3 the
// rounded sum s and Y4, on exit, q with v's sign — the value the half
// stands for. A non-finite lane is counted in Y14, one counter per lane,
// and zeroed in v and a, which is the Go loop's drop. In order: a; the
// non-finite mask, counted, then clearing v and a; the saturation; m from
// a's exponent; the below-2^-14 mask and m's floor at pointFive; the
// half-up nudge; s = a + m, rounded; s - m, exact; the sign of v put on.
#define QUANTIZE \
	VPAND    Y6, Y0, Y1 \
	VPCMPGTD Y7, Y1, Y2 \
	VPSUBD   Y2, Y14, Y14 \
	VPANDN   Y0, Y2, Y0 \
	VPANDN   Y1, Y2, Y1 \
	VPMINSD  Y8, Y1, Y1 \
	VPAND    Y9, Y1, Y2 \
	VPADDD   Y10, Y2, Y2 \
	VPCMPGTD Y2, Y11, Y3 \
	VPMAXSD  Y11, Y2, Y2 \
	VPSRLD   $31, Y3, Y3 \
	VPOR     Y3, Y1, Y1 \
	VADDPS   Y2, Y1, Y3 \
	VSUBPS   Y2, Y3, Y4 \
	VPANDN   Y0, Y6, Y5 \
	VPOR     Y5, Y4, Y4

// DROPPED stores the sum of Y14's eight lane counters at ret.
#define DROPPED(ret) \
	VEXTRACTI128 $1, Y14, X0 \
	VPADDD       X0, X14, X0 \
	VPSHUFD      $0x4e, X0, X1 \
	VPADDD       X1, X0, X0 \
	VPSHUFD      $0xb1, X0, X1 \
	VPADDD       X1, X0, X0 \
	VMOVD        X0, AX \
	MOVQ         AX, ret

// func halfEncodeAVX(frame *byte, data *float32, n int, residual, deq *float32) (dropped int)
//
// QUANTIZE on v = data (plus residual). The frame's halves are VCVTPS2PH
// of q: q is a binary16 value already, so the conversion is exact under
// any rounding mode and yields halfBits' h with the sign — it packs bits,
// it rounds nothing. frame, residual and deq are tested per block; the
// branches go the same way every time.
TEXT ·halfEncodeAVX(SB), NOSPLIT, $0-48
	MOVQ frame+0(FP), DX
	MOVQ data+8(FP), R8
	MOVQ n+16(FP), CX
	MOVQ residual+24(FP), R9
	MOVQ deq+32(FP), R10
	HALFCONSTS
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
	QUANTIZE
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
	DROPPED(dropped+40(FP))
	VZEROUPPER
	RET

// DECODE widens the eight halves at src into y as halfValue does, with t
// and u scratch. VCVTPH2PS is exact for every half but quiets a signaling
// NaN, which halfValue keeps; so for an exponent-31 half — u, where the
// exponent field of t = zero-extended half << 13 is all ones — the quiet
// bit (bit 22, Y12) is put back to the half's own (its mantissa bit 9,
// which the shift moved there: clear in an infinity and a signaling NaN).
// Y13 holds the shifted exponent field, 0x0f800000.
#define DECODE(src, y, t, u) \
	VCVTPH2PS src, y \
	VPMOVZXWD src, t \
	VPSLLD    $13, t, t \
	VPAND     Y13, t, u \
	VPCMPEQD  Y13, u, u \
	VPANDN    Y12, t, t \
	VPAND     u, t, t \
	VPANDN    y, t, y

// DECODECONSTS loads DECODE's constants.
#define DECODECONSTS \
	BROADCAST($0x00400000, X12, Y12) \
	BROADCAST($0x0f800000, X13, Y13)

// func halfDecodeAVX(frame *byte, out *float32, n int, add bool)
//
// DECODE into Y0, then, with add, Y0 += out, and store. Where both
// addends are NaN the sum keeps the decoded one's payload, as the Go
// loop's addition does on amd64 (TestHalfDecodeExhaustive pins it). add
// is tested per block; the branch goes the same way every time.
TEXT ·halfDecodeAVX(SB), NOSPLIT, $0-25
	DECODECONSTS
	MOVQ    frame+0(FP), DX
	MOVQ    out+8(FP), R8
	MOVQ    n+16(FP), CX
	MOVBLZX add+24(FP), BX
	SHLQ    $2, CX
	XORQ    SI, SI              // offset into the floats
	XORQ    DI, DI              // offset into frame, SI/2
	PCALIGN $32

loop:
	DECODE((DX)(DI*1), Y0, Y1, Y2)
	TESTQ   BX, BX
	JEQ     store
	VADDPS  (R8)(SI*1), Y0, Y0

store:
	VMOVUPS Y0, (R8)(SI*1)
	ADDQ    $16, DI
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	VZEROUPPER
	RET

// func halfLandAVX(frame *byte, acc *float32, n int, s float32) (dropped int)
//
// VCVTPH2PS into Y0, v = acc + Y0, QUANTIZE, then q·s (Y15) back into
// acc. DECODE's quiet-bit repair is left out: a NaN half makes v a NaN,
// which QUANTIZE drops to +0 whatever its payload.
TEXT ·halfLandAVX(SB), NOSPLIT, $0-40
	HALFCONSTS
	MOVQ         frame+0(FP), DX
	MOVQ         acc+8(FP), R8
	MOVQ         n+16(FP), CX
	VBROADCASTSS s+24(FP), Y15
	SHLQ         $2, CX
	XORQ         SI, SI         // offset into the floats
	XORQ         DI, DI         // offset into frame, SI/2
	PCALIGN      $32

loop:
	VCVTPH2PS (DX)(DI*1), Y0
	VADDPS    (R8)(SI*1), Y0, Y0
	QUANTIZE
	VMULPS  Y15, Y4, Y4
	VMOVUPS Y4, (R8)(SI*1)
	ADDQ    $16, DI
	ADDQ    $32, SI
	CMPQ    SI, CX
	JLT     loop
	DROPPED(dropped+32(FP))
	VZEROUPPER
	RET
