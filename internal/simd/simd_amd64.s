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

// func sampledAVX2(d *Draw, k, m int) int
//
// Runs peers k, k+4, ... four at a time while four remain, every peer of the
// four lies in Px and none repels from under 1e-9, with the reference loop's
// operations in its order. Positions are gathered lane by lane; a lane whose
// force is <= 0 adds -0, which leaves any sum unchanged.
TEXT ·sampledAVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), SI
	MOVQ k+8(FP), R11
	MOVQ m+16(FP), R13
	MOVQ Draw_Px(SI), R8
	MOVQ Draw_Px+8(SI), R10 // len(Px)
	MOVQ Draw_Py(SI), R9
	MOVQ Draw_J(SI), R12
	MOVQ Draw_F(SI), DI
	VBROADCASTSD Draw_X(SI), Y0
	VBROADCASTSD Draw_Y(SI), Y1
	MOVQ $0x3e112e0be826d695, AX // 1e-9
	VMOVQ AX, X2
	VBROADCASTSD X2, Y2
	MOVQ $0x8000000000000000, AX // -0
	VMOVQ AX, X11
	VBROADCASTSD X11, Y11
	VBROADCASTSD Draw_Scale(SI), Y12
	VXORPD Y13, Y13, Y13
	VMOVSD Draw_FX(SI), X14
	VMOVSD Draw_FY(SI), X15

sloop:
	LEAQ 4(R11), AX
	CMPQ AX, R13
	JGT  sdone

	// The four peers, each inside Px (a negative one compares above).
	MOVLQSX 0(R12)(R11*4), AX
	MOVLQSX 4(R12)(R11*4), BX
	MOVLQSX 8(R12)(R11*4), CX
	MOVLQSX 12(R12)(R11*4), DX
	CMPQ    AX, R10
	JAE     sdone
	CMPQ    BX, R10
	JAE     sdone
	CMPQ    CX, R10
	JAE     sdone
	CMPQ    DX, R10
	JAE     sdone

	// dx = X - px, dy = Y - py, r = sqrt(dx*dx + dy*dy).
	VMOVSD      (R8)(AX*8), X3
	VMOVHPD     (R8)(BX*8), X3, X3
	VMOVSD      (R8)(CX*8), X5
	VMOVHPD     (R8)(DX*8), X5, X5
	VINSERTF128 $1, X5, Y3, Y3
	VMOVSD      (R9)(AX*8), X4
	VMOVHPD     (R9)(BX*8), X4, X4
	VMOVSD      (R9)(CX*8), X5
	VMOVHPD     (R9)(DX*8), X5, X5
	VINSERTF128 $1, X5, Y4, Y4
	VSUBPD      Y3, Y0, Y3
	VSUBPD      Y4, Y1, Y4
	VMULPD      Y3, Y3, Y5
	VMULPD      Y4, Y4, Y6
	VADDPD      Y6, Y5, Y5
	VSQRTPD     Y5, Y5

	// Repelling lanes !(f <= 0), NaN included; a repelling lane with
	// r < 1e-9 needs a hashed direction: leave the group to the caller.
	VMOVUPD   (DI)(R11*8), Y6
	VCMPPD    $0x16, Y13, Y6, Y7
	VCMPPD    $1, Y2, Y5, Y8
	VANDPD    Y7, Y8, Y8
	VMOVMSKPD Y8, AX
	TESTQ     AX, AX
	JNE       sdone

	// ((f*scale)*dx)/r and ((f*scale)*dy)/r, -0 in the other lanes.
	VMULPD    Y12, Y6, Y6
	VMULPD    Y3, Y6, Y3
	VDIVPD    Y5, Y3, Y3
	VMULPD    Y4, Y6, Y4
	VDIVPD    Y5, Y4, Y4
	VBLENDVPD Y7, Y3, Y11, Y3
	VBLENDVPD Y7, Y4, Y11, Y4

	LANESUM(Y3, X3, X14, X9)
	LANESUM(Y4, X4, X15, X9)

	ADDQ $4, R11
	JMP  sloop

sdone:
	VMOVSD X14, Draw_FX(SI)
	VMOVSD X15, Draw_FY(SI)
	VZEROUPPER
	MOVQ R11, ret+24(FP)
	RET

// PFDIST is how many partners ahead peakCorrAVX2 prefetches records.
#define PFDIST 8

// PREFETCHREC prefetches the record of the partner whose index is at mem:
// its first line and the line of its last sample. It clobbers r.
#define PREFETCHREC(mem, r) \
	MOVLQSX    mem, r;       \
	IMULQ      R10, r;       \
	PREFETCHT0 (R9)(r*8);    \
	ADDQ       R8, r;        \
	PREFETCHT0 (R9)(r*8)

// RECORD loads the partner index at mem into r, returns before the group
// if the partner lies outside rec, and points r at its record.
#define RECORD(mem, r) \
	MOVLQSX mem, r;    \
	CMPQ    r, R11;    \
	JAE     pdone;     \
	IMULQ   R10, r;    \
	LEAQ    (R9)(r*8), r

// func peakCorrAVX2(dst, a []float64, peakA float64, rec []float64, stride int, js []int32) int
//
// Runs partners k, k+4, ... four at a time while four remain, none outside
// rec and none a SlowRow: their combined peaks as VADDPD then VMAXPD over
// four-sample groups, each into its own accumulator, folded into one
// vector of four maxima; the tail samples of all four as one vector; then
// one VDIVPD and the reference loop's selects. Records are prefetched
// PFDIST partners ahead. A max of clean sums does not depend on the order
// it is taken in, so the results are the reference loop's bits.
TEXT ·peakCorrAVX2(SB), NOSPLIT, $0-120
	MOVQ   rec_len+64(FP), AX
	MOVQ   stride+80(FP), R10
	XORQ   DX, DX
	DIVQ   R10
	MOVQ   AX, R11 // records in rec
	MOVQ   a_base+24(FP), SI
	MOVQ   a_len+32(FP), R8
	MOVQ   R8, DX
	ANDQ   $-4, DX // samples in whole groups
	VBROADCASTSD peakA+48(FP), Y8
	MOVQ   rec_base+56(FP), R9
	MOVQ   js_base+88(FP), R12
	MOVQ   js_len+96(FP), R13
	MOVQ   $0xbff0000000000000, AX // SlowRow, -1
	VMOVQ  AX, X10
	VBROADCASTSD X10, Y10
	MOVQ   $0x3e112e0be826d695, AX // 1e-9
	VMOVQ  AX, X11
	VBROADCASTSD X11, Y11
	MOVQ   $0x3fe0000000000000, AX // 0.5
	VMOVQ  AX, X12
	VBROADCASTSD X12, Y12
	VXORPD Y13, Y13, Y13

	// Prefetch the first PFDIST partners' records.
	XORQ BX, BX

pro:
	CMPQ BX, R13
	JAE  quad0
	CMPQ BX, $PFDIST
	JAE  quad0
	PREFETCHREC((R12)(BX*4), AX)
	INCQ BX
	JMP  pro

quad0:
	XORQ BX, BX

quad:
	LEAQ 4(BX), AX
	CMPQ AX, R13
	JA   pdone // fewer than four left
	LEAQ PFDIST+4(BX), AX
	CMPQ AX, R13
	JA   qrec
	PREFETCHREC(PFDIST*4+0(R12)(BX*4), AX)
	PREFETCHREC(PFDIST*4+4(R12)(BX*4), AX)
	PREFETCHREC(PFDIST*4+8(R12)(BX*4), AX)
	PREFETCHREC(PFDIST*4+12(R12)(BX*4), AX)

qrec:
	RECORD(0(R12)(BX*4), CX)
	RECORD(4(R12)(BX*4), DI)
	RECORD(8(R12)(BX*4), R14)
	RECORD(12(R12)(BX*4), R15)
	VMOVSD      (CX), X4
	VMOVHPD     (DI), X4, X4
	VMOVSD      (R14), X5
	VMOVHPD     (R15), X5, X5
	VINSERTF128 $1, X5, Y4, Y4 // the four peaks
	VCMPPD      $0, Y10, Y4, Y5
	VMOVMSKPD   Y5, AX
	TESTQ       AX, AX
	JNE         pdone // a SlowRow partner

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	CMPQ   AX, DX
	JAE    qfold

qvec:
	VMOVUPD (SI)(AX*8), Y9
	VADDPD  8(CX)(AX*8), Y9, Y5
	VMAXPD  Y5, Y0, Y0
	VADDPD  8(DI)(AX*8), Y9, Y6
	VMAXPD  Y6, Y1, Y1
	VADDPD  8(R14)(AX*8), Y9, Y5
	VMAXPD  Y5, Y2, Y2
	VADDPD  8(R15)(AX*8), Y9, Y6
	VMAXPD  Y6, Y3, Y3
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      qvec

qfold:
	// Lane q of Y14 = max over accumulator q's lanes.
	VUNPCKLPD  Y1, Y0, Y5
	VUNPCKHPD  Y1, Y0, Y6
	VMAXPD     Y6, Y5, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VMAXPD     Y7, Y6, Y6
	VPERM2F128 $0x20, Y6, Y5, Y7
	VPERM2F128 $0x31, Y6, Y5, Y14
	VMAXPD     Y14, Y7, Y14

qtail:
	CMPQ         AX, R8
	JAE          qsel
	VMOVSD       8(CX)(AX*8), X5
	VMOVHPD      8(DI)(AX*8), X5, X5
	VMOVSD       8(R14)(AX*8), X6
	VMOVHPD      8(R15)(AX*8), X6, X6
	VINSERTF128  $1, X6, Y5, Y5
	VBROADCASTSD (SI)(AX*8), Y9
	VADDPD       Y5, Y9, Y5
	VMAXPD       Y5, Y14, Y14
	INCQ         AX
	JMP          qtail

qsel:
	VADDPD    Y4, Y8, Y5 // den
	VDIVPD    Y5, Y14, Y6
	VCMPPD    $1, Y11, Y6, Y7
	VBLENDVPD Y7, Y11, Y6, Y6
	VCMPPD    $0x0a, Y13, Y5, Y7
	VBLENDVPD Y7, Y12, Y6, Y6
	MOVQ      dst_base+0(FP), AX
	VMOVUPD   Y6, (AX)(BX*8)
	ADDQ      $4, BX
	JMP       quad

pdone:
	VZEROUPPER
	MOVQ BX, ret+112(FP)
	RET
