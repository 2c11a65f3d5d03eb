#include "textflag.h"

// AVX bodies of the three stream leaves of stream.go, under the rules of
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
