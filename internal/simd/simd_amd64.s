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

// SPLAT lays out a 32-byte constant holding v in each of its four lanes,
// a memory operand for the Y-register kernels below.
#define SPLAT(name, v) \
	DATA name<>+0(SB)/8, v;  \
	DATA name<>+8(SB)/8, v;  \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

SPLAT(c24, $0x4038000000000000)        // 24
SPLAT(cPi, $0x400921fb54442d18)        // math.Pi
SPLAT(cAbs, $0x7fffffffffffffff)       // the magnitude bits
SPLAT(cSign, $0x8000000000000000)      // the sign bit
SPLAT(cReduce, $0x41c0000000000000)    // 2^29, math.Cos's reduceThreshold
SPLAT(c4Pi, $0x3ff45f306dc9c883)       // 4/math.Pi
SPLAT(cPI4A, $0x3fe921fb40000000)      // Pi/4 in three parts
SPLAT(cPI4B, $0x3e64442d00000000)
SPLAT(cPI4C, $0x3ce8469898cc5170)
SPLAT(cSin0, $0x3de5d8fd1fd19ccd)      // math's sine coefficients
SPLAT(cSin1, $0xbe5ae5e5a9291f5d)
SPLAT(cSin2, $0x3ec71de3567d48a1)
SPLAT(cSin3, $0xbf2a01a019bfdf03)
SPLAT(cSin4, $0x3f8111111110f7d0)
SPLAT(cSin5, $0xbfc5555555555548)
SPLAT(cCos0, $0xbda8fa49a0861a9b)      // math's cosine coefficients
SPLAT(cCos1, $0x3e21ee9d7b4e3f05)
SPLAT(cCos2, $0xbe927e4f7eac4bc6)
SPLAT(cCos3, $0x3efa01a019c844f5)
SPLAT(cCos4, $0xbf56c16c16c14f91)
SPLAT(cCos5, $0x3fa555555555554b)
SPLAT(cOne, $0x3ff0000000000000)       // 1
SPLAT(cHalf, $0x3fe0000000000000)      // 0.5
SPLAT(cOdd, $0x0000000100000001)       // 1 in each int32 lane
SPLAT(cMix1, $0xbf58476d1ce4e5b9)      // mix64's multipliers
SPLAT(cMix1Hi, $0x00000000bf58476d)
SPLAT(cMix2, $0x94d049bb133111eb)
SPLAT(cMix2Hi, $0x0000000094d049bb)
SPLAT(cLow32, $0x00000000ffffffff)
SPLAT(c2p52, $0x4330000000000000)      // 2^52: its ulp is 1
SPLAT(c2p84, $0x4530000000000000)      // 2^84: its ulp is 2^32
SPLAT(c2m53, $0x3ca0000000000000)      // 2^-53
SPLAT(cBurst, $0x3fe8000000000000)     // 0.75
SPLAT(cFloor, $0x3f947ae147ae147b)     // 0.02

// POLY evaluates ((((((c0*zz)+c1)*zz+c2)*zz+c3)*zz+c4)*zz+c5) into p from
// zz, with c0..c5 the six constants of prefix c.
#define POLY(c0, c1, c2, c3, c4, c5, zz, p) \
	VMULPD c0<>(SB), zz, p; \
	VADDPD c1<>(SB), p, p;  \
	VMULPD zz, p, p;        \
	VADDPD c2<>(SB), p, p;  \
	VMULPD zz, p, p;        \
	VADDPD c3<>(SB), p, p;  \
	VMULPD zz, p, p;        \
	VADDPD c4<>(SB), p, p;  \
	VMULPD zz, p, p;        \
	VADDPD c5<>(SB), p, p

// func diurnalAVX2(dst, hours []float64, peak float64, k int) int
//
// Runs steps k, k+4, ... four at a time while four remain and none of the
// four arguments is a NaN, an infinity or at least 2^29 in magnitude,
// with math.Cos's operations in its order.
TEXT ·diurnalAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R12
	MOVQ hours_base+24(FP), SI
	VBROADCASTSD peak+48(FP), Y15
	MOVQ k+56(FP), R11

dloop:
	LEAQ 4(R11), R13
	CMPQ R13, R12
	JGT  ddone

	// x = |(h - peak) / 24 * 2 * Pi|.
	VMOVUPD (SI)(R11*8), Y0
	VSUBPD  Y15, Y0, Y0
	VDIVPD  c24<>(SB), Y0, Y0
	VADDPD  Y0, Y0, Y0
	VMULPD  cPi<>(SB), Y0, Y0
	VANDPD  cAbs<>(SB), Y0, Y0

	// A NaN, an infinity or |x| >= 2^29 takes math.Cos's other paths:
	// leave the group to the caller.
	VCMPPD    $0x15, cReduce<>(SB), Y0, Y1
	VMOVMSKPD Y1, AX
	TESTQ     AX, AX
	JNE       ddone

	// j = uint64(x * 4/Pi), odd j rounded up; y = float64(j).
	VMULPD      c4Pi<>(SB), Y0, Y1
	VCVTTPD2DQY Y1, X1
	VPAND       cOdd<>(SB), X1, X2
	VPADDD      X2, X1, X1
	VCVTDQ2PD   X1, Y2

	// Octant bit 1 picks the sine polynomial (into bit 63 of Y4), bit 1
	// xor bit 2 flips the sign (into Y3's sign bits).
	VPMOVZXDQ X1, Y3
	VPSLLQ    $62, Y3, Y4
	VPSLLQ    $61, Y3, Y3
	VPXOR     Y4, Y3, Y3
	VANDPD    cSign<>(SB), Y3, Y3

	// z = ((x - y*PI4A) - y*PI4B) - y*PI4C; zz = z*z.
	VMULPD cPI4A<>(SB), Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD cPI4B<>(SB), Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD cPI4C<>(SB), Y2, Y5
	VSUBPD Y5, Y0, Y0
	VMULPD Y0, Y0, Y1

	// Sine: z + z*zz*P(zz).
	POLY(cSin0, cSin1, cSin2, cSin3, cSin4, cSin5, Y1, Y5)
	VMULPD Y1, Y0, Y6
	VMULPD Y5, Y6, Y6
	VADDPD Y6, Y0, Y6

	// Cosine: 1 - 0.5*zz + zz*zz*Q(zz).
	POLY(cCos0, cCos1, cCos2, cCos3, cCos4, cCos5, Y1, Y5)
	VMULPD  Y1, Y1, Y7
	VMULPD  Y5, Y7, Y7
	VMULPD  cHalf<>(SB), Y1, Y8
	VMOVUPD cOne<>(SB), Y9
	VSUBPD  Y8, Y9, Y9
	VADDPD  Y7, Y9, Y9

	VBLENDVPD Y4, Y6, Y9, Y9
	VXORPD    Y3, Y9, Y9
	VMOVUPD   Y9, (DI)(R11*8)

	ADDQ $4, R11
	JMP  dloop

ddone:
	VZEROUPPER
	MOVQ R11, ret+64(FP)
	RET

// MUL64 sets each 64-bit lane of z to its product with the constant lanes
// c (c's low halves) and chi (c's high halves), modulo 2^64, from three
// 32x32-bit products. It clobbers t and u.
#define MUL64(c, chi, z, t, u) \
	VPSRLQ   $32, z, t;       \
	VPMULUDQ c<>(SB), t, t;   \
	VPMULUDQ chi<>(SB), z, u; \
	VPADDQ   u, t, t;         \
	VPSLLQ   $32, t, t;       \
	VPMULUDQ c<>(SB), z, z;   \
	VPADDQ   t, z, z

// func utilRowAVX2(dst []float64, u *Util, burst bool) int
//
// Runs steps 0, 4, ... four at a time while four remain, with UtilRowGo's
// operations in its order, and returns the first step it did not run.
TEXT ·utilRowAVX2(SB), NOSPLIT, $0-48
	MOVQ    dst_base+0(FP), DI
	MOVQ    dst_len+8(FP), R12
	MOVQ    u+24(FP), SI
	MOVBQZX burst+32(FP), R10
	MOVQ    Util_Diurnal(SI), AX
	MOVQ    Util_SlowEase(SI), BX
	MOVQ    Util_BurstEase(SI), CX
	MOVQ    Util_Keys(SI), DX
	VBROADCASTSD Util_Mean(SI), Y8
	VBROADCASTSD Util_Amp(SI), Y9
	VBROADCASTSD Util_DayF(SI), Y10
	VBROADCASTSD Util_SlowA(SI), Y11
	VBROADCASTSD Util_SlowB(SI), Y12
	VBROADCASTSD Util_SlowAmp(SI), Y13
	VPBROADCASTQ Util_FastKey(SI), Y14
	VMOVUPD      cOne<>(SB), Y15
	XORQ R11, R11

uloop:
	LEAQ 4(R11), R13
	CMPQ R13, R12
	JGT  udone

	// base = (Mean + Amp*diurnal) * DayF.
	VMULPD (AX)(R11*8), Y9, Y0
	VADDPD Y0, Y8, Y0
	VMULPD Y10, Y0, Y0

	// slow = ((SlowA*(1-e) + SlowB*e) - 0.5) * 2 * SlowAmp.
	VMOVUPD (BX)(R11*8), Y1
	VSUBPD  Y1, Y15, Y2
	VMULPD  Y11, Y2, Y2
	VMULPD  Y12, Y1, Y1
	VADDPD  Y1, Y2, Y2
	VSUBPD  cHalf<>(SB), Y2, Y2
	VADDPD  Y2, Y2, Y2
	VMULPD  Y13, Y2, Y2
	VADDPD  Y2, Y0, Y0

	// h = mix64(FastKey ^ key).
	VMOVDQU (DX)(R11*8), Y1
	VPXOR   Y14, Y1, Y1
	VPSRLQ  $30, Y1, Y2
	VPXOR   Y2, Y1, Y1
	MUL64(cMix1, cMix1Hi, Y1, Y2, Y3)
	VPSRLQ  $27, Y1, Y2
	VPXOR   Y2, Y1, Y1
	MUL64(cMix2, cMix2Hi, Y1, Y2, Y3)
	VPSRLQ  $31, Y1, Y2
	VPXOR   Y2, Y1, Y1

	// Unit: float64(h>>11) as hi*2^32 + lo, each half exact through a
	// magic-number bias, then / 2^53.
	VPSRLQ $11, Y1, Y1
	VPSRLQ $32, Y1, Y2
	VPAND  cLow32<>(SB), Y1, Y1
	VPOR   c2p52<>(SB), Y1, Y1
	VSUBPD c2p52<>(SB), Y1, Y1
	VPOR   c2p84<>(SB), Y2, Y2
	VSUBPD c2p84<>(SB), Y2, Y2
	VADDPD Y1, Y2, Y1
	VMULPD c2m53<>(SB), Y1, Y1

	// fast = (unit - 0.5) * 2 * FastAmp; u = base + slow + fast.
	VSUBPD       cHalf<>(SB), Y1, Y1
	VADDPD       Y1, Y1, Y1
	VBROADCASTSD Util_FastAmp(SI), Y2
	VMULPD       Y2, Y1, Y1
	VADDPD       Y1, Y0, Y0

	// Burst: u + BurstAmp where BurstA*(1-e) + BurstB*e > 0.75.
	TESTQ R10, R10
	JEQ   uclamp
	VMOVUPD      (CX)(R11*8), Y1
	VSUBPD       Y1, Y15, Y2
	VBROADCASTSD Util_BurstA(SI), Y3
	VMULPD       Y3, Y2, Y2
	VBROADCASTSD Util_BurstB(SI), Y3
	VMULPD       Y3, Y1, Y1
	VADDPD       Y1, Y2, Y2
	VCMPPD       $0x1e, cBurst<>(SB), Y2, Y2
	VBROADCASTSD Util_BurstAmp(SI), Y3
	VADDPD       Y3, Y0, Y3
	VBLENDVPD    Y2, Y3, Y0, Y0

uclamp:
	// units.Clamp(u, 0.02, 1).
	VCMPPD    $0x11, cFloor<>(SB), Y0, Y1
	VCMPPD    $0x1e, Y15, Y0, Y2
	VBLENDVPD Y2, Y15, Y0, Y0
	VBLENDVPD Y1, cFloor<>(SB), Y0, Y0
	VMOVUPD   Y0, (DI)(R11*8)

	ADDQ $4, R11
	JMP  uloop

udone:
	VZEROUPPER
	MOVQ R11, ret+40(FP)
	RET
