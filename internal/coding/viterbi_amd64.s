#include "textflag.h"

// negInf4 is four float64 -Inf lanes, the clamp target.
DATA negInf4<>+0(SB)/8, $0xfff0000000000000
DATA negInf4<>+8(SB)/8, $0xfff0000000000000
DATA negInf4<>+16(SB)/8, $0xfff0000000000000
DATA negInf4<>+24(SB)/8, $0xfff0000000000000
GLOBL negInf4<>(SB), RODATA|NOPTR, $32

// ACS_GROUP runs butterflies j = 4g..4g+3 of one step, with SI = cur,
// DI = next, R10 = &signA, R11 = &signB, Y13 = mB, Y14 = mA,
// Y15 = -Inf, and DX collecting the step's decision word. cur, sign and
// next-half offsets are 64g, 32g and 32g bytes.
//
// Lanes hold p0 = 2j in E and p0+1 in O. With A = signA*mA, B = signB*mB:
//   lo (next j)    = select((E+A)+B, (O-A)-B)
//   hi (next j+32) = select((E-A)-B, (O+A)+B)
// where select clamps the p0 candidate to -Inf unless it compares greater
// than -Inf (GT_OQ, false on NaN like Go's >), then blends in the p0+1
// candidate only where it compares strictly greater, so p0 wins a tie.
// The blend masks' sign bits are the decision bits j and j+32.
#define ACS_GROUP(curOff, signOff, nextOff, loShift, hiShift) \
	VMOVUPD curOff(SI), Y0; \
	VMOVUPD curOff+32(SI), Y1; \
	VUNPCKLPD Y1, Y0, Y2; \
	VUNPCKHPD Y1, Y0, Y3; \
	VPERMPD $0xd8, Y2, Y2; \
	VPERMPD $0xd8, Y3, Y3; \
	VMULPD signOff(R10), Y14, Y4; \
	VMULPD signOff(R11), Y13, Y5; \
	VADDPD Y4, Y2, Y6; \
	VADDPD Y5, Y6, Y6; \
	VSUBPD Y4, Y3, Y7; \
	VSUBPD Y5, Y7, Y7; \
	VSUBPD Y4, Y2, Y8; \
	VSUBPD Y5, Y8, Y8; \
	VADDPD Y4, Y3, Y9; \
	VADDPD Y5, Y9, Y9; \
	VCMPPD $0x1e, Y15, Y6, Y10; \
	VBLENDVPD Y10, Y6, Y15, Y6; \
	VCMPPD $0x1e, Y6, Y7, Y11; \
	VBLENDVPD Y11, Y7, Y6, Y6; \
	VMOVUPD Y6, nextOff(DI); \
	VMOVMSKPD Y11, AX; \
	SHLQ $loShift, AX; \
	ORQ AX, DX; \
	VCMPPD $0x1e, Y15, Y8, Y10; \
	VBLENDVPD Y10, Y8, Y15, Y8; \
	VCMPPD $0x1e, Y8, Y9, Y12; \
	VBLENDVPD Y12, Y9, Y8, Y8; \
	VMOVUPD Y8, nextOff+256(DI); \
	VMOVMSKPD Y12, BX; \
	SHLQ $hiShift, BX; \
	ORQ BX, DX

// func acsAVX2(cur, next *[NumStates]float64, metrics []float64, decisions []uint64)
TEXT ·acsAVX2(SB), NOSPLIT, $0-64
	MOVQ cur+0(FP), SI
	MOVQ next+8(FP), DI
	MOVQ metrics_base+16(FP), R8
	MOVQ decisions_base+40(FP), R9
	MOVQ decisions_len+48(FP), CX
	LEAQ ·signA(SB), R10
	LEAQ ·signB(SB), R11
	VMOVUPD negInf4<>(SB), Y15
	TESTQ CX, CX
	JZ done

step:
	VBROADCASTSD (R8), Y14
	VBROADCASTSD 8(R8), Y13
	XORQ DX, DX
	ACS_GROUP(0, 0, 0, 0, 32)
	ACS_GROUP(64, 32, 32, 4, 36)
	ACS_GROUP(128, 64, 64, 8, 40)
	ACS_GROUP(192, 96, 96, 12, 44)
	ACS_GROUP(256, 128, 128, 16, 48)
	ACS_GROUP(320, 160, 160, 20, 52)
	ACS_GROUP(384, 192, 192, 24, 56)
	ACS_GROUP(448, 224, 224, 28, 60)
	MOVQ DX, (R9)
	XCHGQ SI, DI
	ADDQ $16, R8
	ADDQ $8, R9
	DECQ CX
	JNZ step

done:
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
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
