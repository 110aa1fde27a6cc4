#include "textflag.h"

// Every instruction below is VEX-encoded and the kernel ends with
// VZEROUPPER: one legacy-SSE instruction between AVX ones costs an
// SSE/AVX state transition on every call.

DATA kernelConst<>+0(SB)/8, $0xfff0000000000000 // -Inf
DATA kernelConst<>+8(SB)/8, $8                  // lane index step
DATA kernelConst<>+16(SB)/8, $0x7fffffffffffffff // MaxInt64
GLOBL kernelConst<>(SB), RODATA|NOPTR, $24

DATA laneIndex<>+0(SB)/8, $0
DATA laneIndex<>+8(SB)/8, $1
DATA laneIndex<>+16(SB)/8, $2
DATA laneIndex<>+24(SB)/8, $3
DATA laneIndex<>+32(SB)/8, $4
DATA laneIndex<>+40(SB)/8, $5
DATA laneIndex<>+48(SB)/8, $6
DATA laneIndex<>+56(SB)/8, $7
GLOBL laneIndex<>(SB), RODATA|NOPTR, $64

// func maxReductionAVX2(f, z, tfz *float64, n int, dz, df float64) (best float64, idx int)
//
// Accumulator A (Y2 values, Y4 indexes) takes elements 8i..8i+3 and
// accumulator B (Y3, Y5) elements 8i+4..8i+7. A lane replaces its
// value only on a strictly larger one, so it keeps the first index of
// its maximum. The reduction takes the maximum over all eight lanes and
// the smallest index among the lanes that hold it.
TEXT ·maxReductionAVX2(SB), NOSPLIT, $0-64
	MOVQ f+0(FP), SI
	MOVQ z+8(FP), DI
	MOVQ tfz+16(FP), R8
	MOVQ n+24(FP), CX
	VBROADCASTSD dz+32(FP), Y0
	VBROADCASTSD df+40(FP), Y1
	VBROADCASTSD kernelConst<>+0(SB), Y2
	VMOVAPD Y2, Y3
	VMOVDQU laneIndex<>+0(SB), Y6
	VMOVDQU laneIndex<>+32(SB), Y7
	VMOVDQA Y6, Y4
	VMOVDQA Y7, Y5
	VPBROADCASTQ kernelConst<>+8(SB), Y8
	XORQ AX, AX

loop:
	// (f·dz + z·df) − tfz, rounded after every operation exactly like
	// the scalar expression.
	VMOVUPD (SI)(AX*8), Y9
	VMOVUPD 32(SI)(AX*8), Y10
	VMULPD  Y0, Y9, Y9
	VMULPD  Y0, Y10, Y10
	VMULPD  (DI)(AX*8), Y1, Y11
	VMULPD  32(DI)(AX*8), Y1, Y12
	VADDPD  Y11, Y9, Y9
	VADDPD  Y12, Y10, Y10
	VSUBPD  (R8)(AX*8), Y9, Y9
	VSUBPD  32(R8)(AX*8), Y10, Y10

	// Strictly greater (GT_OQ) replaces value and index.
	VCMPPD    $0x1e, Y2, Y9, Y11
	VCMPPD    $0x1e, Y3, Y10, Y12
	VBLENDVPD Y11, Y9, Y2, Y2
	VBLENDVPD Y12, Y10, Y3, Y3
	VBLENDVPD Y11, Y6, Y4, Y4
	VBLENDVPD Y12, Y7, Y5, Y5
	VPADDQ    Y8, Y6, Y6
	VPADDQ    Y8, Y7, Y7
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       loop

	// Y9 = the maximum in every lane.
	VMAXPD     Y3, Y2, Y9
	VPERM2F128 $0x01, Y9, Y9, Y10
	VMAXPD     Y10, Y9, Y9
	VPERMILPD  $0x05, Y9, Y10
	VMAXPD     Y10, Y9, Y9

	// Lanes below the maximum offer MaxInt64 as their index.
	VPBROADCASTQ kernelConst<>+16(SB), Y13
	VCMPPD       $0x00, Y9, Y2, Y11
	VCMPPD       $0x00, Y9, Y3, Y12
	VBLENDVPD    Y11, Y4, Y13, Y4
	VBLENDVPD    Y12, Y5, Y13, Y5

	// Y4 = the smallest offered index in lane 0.
	VPCMPGTQ   Y5, Y4, Y11
	VBLENDVPD  Y11, Y5, Y4, Y4
	VPERM2I128 $0x01, Y4, Y4, Y5
	VPCMPGTQ   Y5, Y4, Y11
	VBLENDVPD  Y11, Y5, Y4, Y4
	VPSHUFD    $0x4e, Y4, Y5
	VPCMPGTQ   Y5, Y4, Y11
	VBLENDVPD  Y11, Y5, Y4, Y4

	VMOVSD X9, best+48(FP)
	VMOVQ  X4, idx+56(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
