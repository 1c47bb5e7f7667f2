//go:build amd64 && !purego

#include "textflag.h"
#include "go_asm.h"

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

// LANESUM adds the four lanes of Y register v (X register vx) to the scalar
// in acc one at a time, lane 0 first, as the reference loop's running sum
// does. It clobbers v and t.
#define LANESUM(v, vx, acc, t) \
	VADDSD       vx, acc, acc; \
	VPERMILPD    $1, vx, t;    \
	VADDSD       t, acc, acc;  \
	VEXTRACTF128 $1, v, vx;    \
	VADDSD       vx, acc, acc; \
	VPERMILPD    $1, vx, t;    \
	VADDSD       t, acc, acc

// func exactAVX2(r *Row, k, m int) int
//
// Runs pairs k, k+4, ... four at a time while four remain and none of the
// four is coincident, with the reference loop's operations in its order.
TEXT ·exactAVX2(SB), NOSPLIT, $0-32
	MOVQ r+0(FP), SI
	MOVQ k+8(FP), R11
	MOVQ m+16(FP), R12
	MOVQ Row_Px(SI), AX
	MOVQ Row_Py(SI), BX
	MOVQ Row_Fx(SI), CX
	MOVQ Row_Fy(SI), DX
	MOVQ Row_Sft(SI), DI
	MOVQ Row_PrevD(SI), R8
	MOVQ Row_Wft(SI), R9
	MOVQ Row_WftT(SI), R10
	VBROADCASTSD Row_X(SI), Y0
	VBROADCASTSD Row_Y(SI), Y1
	MOVQ $0x3e112e0be826d695, R13 // 1e-9
	VMOVQ R13, X2
	VBROADCASTSD X2, Y2
	VMOVSD Row_Cost(SI), X13
	VMOVSD Row_FX(SI), X14
	VMOVSD Row_FY(SI), X15

loop:
	LEAQ 4(R11), R13
	CMPQ R13, R12
	JGT  done

	// d = sqrt(dx*dx + dy*dy), dx = X - px, dy = Y - py.
	VSUBPD  (AX)(R11*8), Y0, Y3
	VSUBPD  (BX)(R11*8), Y1, Y4
	VMULPD  Y3, Y3, Y5
	VMULPD  Y4, Y4, Y6
	VADDPD  Y6, Y5, Y5
	VSQRTPD Y5, Y5

	// A coincident pair (d < 1e-9) needs a hashed direction: leave the
	// group to the caller.
	VCMPPD    $1, Y2, Y5, Y6
	VMOVMSKPD Y6, R13
	TESTQ     R13, R13
	JNE       done

	// Cost terms (d - prevD) * sft; prevD = d.
	VSUBPD  (R8)(R11*8), Y5, Y6
	VMULPD  (DI)(R11*8), Y6, Y6
	VMOVUPD Y5, (R8)(R11*8)

	// Unit direction, the row point's force terms fij*ux and fij*uy, and
	// the partners' fx -= ux*fji, fy -= fji*uy.
	VDIVPD  Y5, Y3, Y3
	VDIVPD  Y5, Y4, Y4
	VMOVUPD (R9)(R11*8), Y7
	VMULPD  Y4, Y7, Y8
	VMULPD  Y3, Y7, Y7
	VMULPD  (R10)(R11*8), Y3, Y9
	VMOVUPD (R10)(R11*8), Y10
	VMULPD  Y4, Y10, Y10
	VMOVUPD (CX)(R11*8), Y11
	VSUBPD  Y9, Y11, Y11
	VMOVUPD Y11, (CX)(R11*8)
	VMOVUPD (DX)(R11*8), Y12
	VSUBPD  Y10, Y12, Y12
	VMOVUPD Y12, (DX)(R11*8)

	LANESUM(Y6, X6, X13, X9)
	LANESUM(Y7, X7, X14, X9)
	LANESUM(Y8, X8, X15, X9)

	ADDQ $4, R11
	JMP  loop

done:
	VMOVSD X13, Row_Cost(SI)
	VMOVSD X14, Row_FX(SI)
	VMOVSD X15, Row_FY(SI)
	VZEROUPPER
	MOVQ R11, ret+24(FP)
	RET

// func peakCorrAVX2(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int
//
// Per partner: the combined peak as VADDPD then VMAXPD over four-sample
// groups, a scalar tail that stops at the record's last sample, then the
// reference loop's division and selects.
TEXT ·peakCorrAVX2(SB), NOSPLIT, $0-120
	MOVQ   rec_len+64(FP), AX
	MOVQ   stride+80(FP), R10
	XORQ   DX, DX
	DIVQ   R10
	MOVQ   AX, R11 // records in rec
	MOVQ   dst_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), R8
	MOVQ   R8, DX
	ANDQ   $-4, DX // samples in whole groups
	VMOVSD peakA+48(FP), X8
	MOVQ   rec_base+56(FP), R9
	MOVQ   js_base+88(FP), R12
	MOVQ   js_len+96(FP), R13
	MOVQ   $0xbff0000000000000, AX // SlowRow, -1
	VMOVQ  AX, X10
	MOVQ   $0x3e112e0be826d695, AX // 1e-9
	VMOVQ  AX, X11
	MOVQ   $0x3fe0000000000000, AX // 0.5
	VMOVQ  AX, X12
	VXORPD X7, X7, X7
	XORQ   BX, BX

pair:
	CMPQ    BX, R13
	JAE     pdone
	MOVLQSX (R12)(BX*4), CX
	CMPQ    CX, R11
	JAE     pdone // out of range: the reference loop reports it
	IMULQ   R10, CX
	LEAQ    (R9)(CX*8), CX // partner record
	VMOVSD  (CX), X9       // peakB
	VUCOMISD X10, X9
	JNE     scan
	JPS     scan
	JMP     pdone // SlowRow partner

scan:
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, DX
	JAE    hmax

vec:
	VMOVUPD (SI)(AX*8), Y1
	VADDPD  8(CX)(AX*8), Y1, Y1
	VMAXPD  Y1, Y0, Y0
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      vec

hmax:
	VEXTRACTF128 $1, Y0, X1
	VMAXPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VMAXSD       X1, X0, X0

tail:
	CMPQ   AX, R8
	JAE    sel
	VMOVSD (SI)(AX*8), X1
	VADDSD 8(CX)(AX*8), X1, X1
	VMAXSD X1, X0, X0
	INCQ   AX
	JMP    tail

sel:
	// c = max/den; c < 1e-9 selects 1e-9; !(den > 0) selects 0.5.
	VADDSD    X9, X8, X2
	VDIVSD    X2, X0, X3
	VCMPSD    $1, X11, X3, X4
	VBLENDVPD X4, X11, X3, X3
	VCMPSD    $0x0a, X7, X2, X4
	VBLENDVPD X4, X12, X3, X3
	VMOVSD    X3, (DI)(BX*8)
	INCQ      BX
	JMP       pair

pdone:
	VZEROUPPER
	MOVQ BX, ret+112(FP)
	RET
