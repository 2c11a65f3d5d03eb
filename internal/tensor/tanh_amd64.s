#include "textflag.h"

// The AVX2 body of the three tanh leaves of tanh.go — tanhFloats,
// geluFloats and geluGradFloats, one routine told apart by op — under the
// rules of matmul_amd64.s and stream_amd64.s: a lane is one element,
// widened to float64, and the Go loops' operations run in the Go loops'
// order, every product rounded by VMULPD before VADDPD or VSUBPD takes
// it (no fused instruction; ci/nofma.sh greps), VZEROUPPER before the
// RET, loop heads aligned to 32 bytes. n is a positive multiple of four.
//
// tanhDef branches on |u|; here every lane computes both the exponential
// form and the rational one, and VBLENDVPD picks per lane what the
// branch would have returned. The ±1 branch needs no form of its own:
// the exponential form takes w = 2·min(|u|, tanhMax), and at w =
// 2·tanhMax 1 − 2/(e^w+1) rounds to exactly 1, which keeps k small and
// e^w finite in every lane (a NaN |u| comes out of VMINPD as the clamp).
// A lane takes the rational form below tanhSmall, NaN included as no
// comparison holds for it; a lane that takes the exponential form may
// have computed garbage in the rational one (u² overflowing, Inf/Inf).
// Nothing traps, and the blend drops it.
//
// One element's chain of dependent operations is about 220 cycles long,
// and a loop that runs it whole, four lanes a step, fills the processor's
// scheduler with operations waiting on their predecessors long before
// its arithmetic units are busy. So a block of up to 64 elements goes
// through three passes, each a loop over the block with a chain a third
// as long — TANH1, TANH2, TANH3 below — which hand their values on
// through a 224-byte slot per group of four in the routine's frame.

// F64X4 is a read-only 32-byte constant: v in each of four lanes.
#define F64X4(name, v) \
	DATA  name<>+0(SB)/8, v \
	DATA  name<>+8(SB)/8, v \
	DATA  name<>+16(SB)/8, v \
	DATA  name<>+24(SB)/8, v \
	GLOBL name<>(SB), RODATA|NOPTR, $32

F64X4(absMask, $0x7fffffffffffffff)
F64X4(signBit, $0x8000000000000000)
F64X4(expScale, $6755399441056767.0)
F64X4(one, $1.0)
F64X4(two, $2.0)
F64X4(half, $0.5)
F64X4(sixteenth, $0.0625)
F64X4(tanhMax, $44.014845965556527147994)
F64X4(tanhSmall, $0.625)
F64X4(tanhP0, $-9.64399179425052238628e-1)
F64X4(tanhP1, $-9.92877231001918586564e1)
F64X4(tanhP2, $-1.61468768441708447952e3)
F64X4(tanhQ0, $1.12811678491632931402e2)
F64X4(tanhQ1, $2.23548839060100448583e3)
F64X4(tanhQ2, $4.84406305325125486048e3)
F64X4(expLog2e, $1.4426950408889634073599246810018920)
F64X4(expLn2Hi, $0.69314718055966295651160180568695068359375)
F64X4(expLn2Lo, $0.28235290563031577122588448175013436025525412068e-12)
F64X4(expE3, $1.6666666666666666667e-1)
F64X4(expE4, $4.1666666666666666667e-2)
F64X4(expE5, $8.3333333333333333333e-3)
F64X4(expE6, $1.3888888888888888889e-3)
F64X4(expE7, $1.9841269841269841270e-4)
F64X4(expE8, $2.4801587301587301587e-5)
F64X4(geluC, $0.7978845608028654)
F64X4(geluK, $0.044715)
F64X4(geluK3, $0.134145)

// GELUARG is geluArg: Y1 = c·(x + k·x·x·x) for x in Y0.
#define GELUARG \
	VMULPD geluK<>(SB), Y0, Y1 \
	VMULPD Y0, Y1, Y1 \
	VMULPD Y0, Y1, Y1 \
	VADDPD Y1, Y0, Y1 \
	VMULPD geluC<>(SB), Y1, Y1

// TANH1 is pass 1 for u in Y1: the mask of lanes with |u| ≥ tanhSmall in
// Y8; w = 2·min(|u|, tanhMax); k = w·log₂e rounded to even (VROUNDPD $0)
// in Y5; the reduced argument r = (w − k·ln2Hi − k·ln2Lo)/16 in Y3; the
// Taylor series' first three Horner steps in Y6; and the rational form u
// + u·s·P(s)/Q(s), s = u², in Y7. It writes Y2–Y10.
#define TANH1 \
	VANDPD    absMask<>(SB), Y1, Y2 \
	VCMPPD    $0x1d, tanhSmall<>(SB), Y2, Y8 \
	VMINPD    tanhMax<>(SB), Y2, Y3 \
	VADDPD    Y3, Y3, Y3 \
	VMULPD    expLog2e<>(SB), Y3, Y4 \
	VROUNDPD  $0, Y4, Y5 \
	VMULPD    expLn2Hi<>(SB), Y5, Y4 \
	VSUBPD    Y4, Y3, Y3 \
	VMULPD    expLn2Lo<>(SB), Y5, Y4 \
	VSUBPD    Y4, Y3, Y3 \
	VMULPD    sixteenth<>(SB), Y3, Y3 \
	VMULPD    expE8<>(SB), Y3, Y6 \
	VADDPD    expE7<>(SB), Y6, Y6 \
	VMULPD    Y3, Y6, Y6 \
	VADDPD    expE6<>(SB), Y6, Y6 \
	VMULPD    Y3, Y6, Y6 \
	VADDPD    expE5<>(SB), Y6, Y6 \
	VMULPD    Y1, Y1, Y4 \
	VMULPD    tanhP0<>(SB), Y4, Y9 \
	VADDPD    tanhP1<>(SB), Y9, Y9 \
	VMULPD    Y4, Y9, Y9 \
	VADDPD    tanhP2<>(SB), Y9, Y9 \
	VADDPD    tanhQ0<>(SB), Y4, Y10 \
	VMULPD    Y4, Y10, Y10 \
	VADDPD    tanhQ1<>(SB), Y10, Y10 \
	VMULPD    Y4, Y10, Y10 \
	VADDPD    tanhQ2<>(SB), Y10, Y10 \
	VMULPD    Y4, Y1, Y7 \
	VMULPD    Y9, Y7, Y7 \
	VDIVPD    Y10, Y7, Y7 \
	VADDPD    Y1, Y7, Y7

// TANH2 is pass 2 for r in Y3 and the Horner value in Y6: the series'
// last four steps, r·p, then four r = r·(r+2). Y3 is the result; it
// writes Y6.
#define TANH2 \
	VMULPD Y3, Y6, Y6 \
	VADDPD expE4<>(SB), Y6, Y6 \
	VMULPD Y3, Y6, Y6 \
	VADDPD expE3<>(SB), Y6, Y6 \
	VMULPD Y3, Y6, Y6 \
	VADDPD half<>(SB), Y6, Y6 \
	VMULPD Y3, Y6, Y6 \
	VADDPD Y14, Y6, Y6 \
	VMULPD Y6, Y3, Y3 \
	VADDPD Y15, Y3, Y6 \
	VMULPD Y6, Y3, Y3 \
	VADDPD Y15, Y3, Y6 \
	VMULPD Y6, Y3, Y3 \
	VADDPD Y15, Y3, Y6 \
	VMULPD Y6, Y3, Y3 \
	VADDPD Y15, Y3, Y6 \
	VMULPD Y6, Y3, Y3

// TANH3 is pass 3 for u in Y1, pass 2's result in Y3, k in Y5, the
// rational form in Y7 and the mask in Y8: s = (r+1)·2^k, with 2^k built
// from k's bits (k + 1.5·2⁵² + 1023 holds k+1023 in its low bits), then
// 1 − 2/(s+1) with u's sign, blended over the rational form. Y3 = tanh u;
// it writes Y5 and Y9.
#define TANH3 \
	VADDPD    Y14, Y3, Y3 \
	VADDPD    expScale<>(SB), Y5, Y5 \
	VPSLLQ    $52, Y5, Y5 \
	VMULPD    Y5, Y3, Y3 \
	VADDPD    Y14, Y3, Y3 \
	VDIVPD    Y3, Y15, Y3 \
	VSUBPD    Y3, Y14, Y3 \
	VANDPD    signBit<>(SB), Y1, Y9 \
	VORPD     Y9, Y3, Y3 \
	VBLENDVPD Y8, Y3, Y7, Y3

// A group's slot: x, u, r, k, the Horner value, the rational form, the
// mask, 32 bytes each. A block is 64 floats.
#define SLOT 224
#define BLOCK 256

// func tanhLeavesAVX(op int, dst *float32, n int, src, grad *float32)
//
// op is opTanh, opGelu or opGeluGrad (tanh.go). DI, SI and DX walk dst,
// src and grad a block at a time; CX is the bytes left, R10 the block's,
// R9 the first slot, R11 the current one, BX the byte offset in the
// block. Y14 and Y15 hold 1 and 2 throughout.
TEXT ·tanhLeavesAVX(SB), $3616-40 // 16 slots, and 32 bytes to align them
	MOVQ    op+0(FP), AX
	MOVQ    dst+8(FP), DI
	MOVQ    n+16(FP), CX
	MOVQ    src+24(FP), SI
	MOVQ    grad+32(FP), DX
	SHLQ    $2, CX
	LEAQ    31(SP), R9
	ANDQ    $~31, R9
	VMOVUPD one<>(SB), Y14
	VMOVUPD two<>(SB), Y15

block:
	MOVQ    $BLOCK, R10
	CMPQ    CX, R10
	CMOVQLT CX, R10
	XORQ    BX, BX
	MOVQ    R9, R11
	PCALIGN $32

pass1:
	VCVTPS2PD (SI)(BX*1), Y0
	VMOVUPD   Y0, Y1
	CMPQ      AX, $0       // opTanh: u is x
	JEQ       reduce
	GELUARG

reduce:
	TANH1
	VMOVUPD Y0, 0(R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y3, 64(R11)
	VMOVUPD Y5, 96(R11)
	VMOVUPD Y6, 128(R11)
	VMOVUPD Y7, 160(R11)
	VMOVUPD Y8, 192(R11)
	ADDQ    $SLOT, R11
	ADDQ    $16, BX
	CMPQ    BX, R10
	JLT     pass1
	MOVQ    R11, R12     // past the last slot
	MOVQ    R9, R11
	PCALIGN $32

pass2:
	VMOVUPD 64(R11), Y3
	VMOVUPD 128(R11), Y6
	TANH2
	VMOVUPD Y3, 64(R11)
	ADDQ    $SLOT, R11
	CMPQ    R11, R12
	JLT     pass2
	XORQ    BX, BX
	MOVQ    R9, R11
	PCALIGN $32

pass3:
	VMOVUPD 0(R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y3
	VMOVUPD 96(R11), Y5
	VMOVUPD 160(R11), Y7
	VMOVUPD 192(R11), Y8
	TANH3
	CMPQ    AX, $1       // opGelu
	JEQ     gelu
	JGT     gelugrad

	// tanh u, or u itself where u is ±0: the rational form gives +0
	// for −0, and tanhDef returns u.
	VXORPD     Y8, Y8, Y8
	VCMPPD     $0x00, Y8, Y1, Y8
	VBLENDVPD  Y8, Y1, Y3, Y3
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (DI)(BX*1)
	JMP        next

gelu:
	// ½x·(1 + t), rounded to float32. (+0 for −0 in t makes no
	// difference to 1 + t.)
	VMULPD     half<>(SB), Y0, Y4
	VADDPD     Y14, Y3, Y3
	VMULPD     Y3, Y4, Y3
	VCVTPD2PSY Y3, X3
	VMOVUPS    X3, (DI)(BX*1)
	JMP        next

gelugrad:
	// d = ½(1 + t) + ½x·(1 − t²)·c(1 + 3k·x·x), rounded to float32
	// and multiplied by the incoming gradient in float32.
	VMULPD     geluK3<>(SB), Y0, Y4
	VMULPD     Y0, Y4, Y4
	VADDPD     Y14, Y4, Y4
	VMULPD     geluC<>(SB), Y4, Y4
	VMULPD     Y3, Y3, Y5
	VSUBPD     Y5, Y14, Y5
	VMULPD     half<>(SB), Y0, Y6
	VMULPD     Y5, Y6, Y6
	VMULPD     Y4, Y6, Y6
	VADDPD     Y14, Y3, Y3
	VMULPD     half<>(SB), Y3, Y3
	VADDPD     Y6, Y3, Y3
	VCVTPD2PSY Y3, X3
	VMULPS     (DX)(BX*1), X3, X3
	VMOVUPS    X3, (DI)(BX*1)

next:
	ADDQ $SLOT, R11
	ADDQ $16, BX
	CMPQ BX, R10
	JLT  pass3
	ADDQ R10, SI
	ADDQ R10, DI
	ADDQ R10, DX
	SUBQ R10, CX
	JNZ  block
	VZEROUPPER
	RET
