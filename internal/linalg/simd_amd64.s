// AVX2 bodies for Dist2Rows, ExpScaled, AXPY4 and StepScan (see
// simd.go). Each lane runs exactly the instruction sequence of the
// scalar code it replaces, so every value is bit-identical to Dist2,
// math.Exp and the Go loops; simd_amd64.go enables them only after
// CPUID, XGETBV and a self-check agree. Every loop head is aligned to 64
// bytes, so an edit elsewhere in the package cannot move a loop across
// a fetch boundary.

#include "textflag.h"

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

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// DIST2GROUP adds the terms of four columns, x[i…i+3], to the
// accumulator of the four rows at P, P+R9, P+2·R9 and P+R10 (R9 is the
// row stride, R10 three strides). A and B hold columns i and i+1 of
// rows 0/2 and 1/3, C and D columns i+2 and i+3; one VUNPCK{L,H}PD
// then yields one column of the four rows. Each lane subtracts,
// squares and adds one term at a time, in index order, as Dist2 does.
#define DIST2GROUP(P, ACC) \
	VMOVUPD     (P), X8; \
	VINSERTF128 $1, (P)(R9*2), Y8, Y8; \
	VMOVUPD     (P)(R9*1), X9; \
	VINSERTF128 $1, (P)(R10*1), Y9, Y9; \
	VMOVUPD     16(P), X10; \
	VINSERTF128 $1, 16(P)(R9*2), Y10, Y10; \
	VMOVUPD     16(P)(R9*1), X11; \
	VINSERTF128 $1, 16(P)(R10*1), Y11, Y11; \
	VUNPCKLPD   Y9, Y8, Y12; \
	VSUBPD      Y12, Y4, Y12; \
	VMULPD      Y12, Y12, Y12; \
	VADDPD      Y12, ACC, ACC; \
	VUNPCKHPD   Y9, Y8, Y13; \
	VSUBPD      Y13, Y5, Y13; \
	VMULPD      Y13, Y13, Y13; \
	VADDPD      Y13, ACC, ACC; \
	VUNPCKLPD   Y11, Y10, Y12; \
	VSUBPD      Y12, Y6, Y12; \
	VMULPD      Y12, Y12, Y12; \
	VADDPD      Y12, ACC, ACC; \
	VUNPCKHPD   Y11, Y10, Y13; \
	VSUBPD      Y13, Y7, Y13; \
	VMULPD      Y13, Y13, Y13; \
	VADDPD      Y13, ACC, ACC

// func dist2Rows16(x, rows, out []float64)
//
// out[j] = Dist2(x, row j) for the first len(out)&^15 rows, sixteen at a
// time in four accumulators of four rows. len(x) must be a positive
// multiple of 4 and rows must hold len(out)·len(x) values.
TEXT ·dist2Rows16(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ rows_base+24(FP), DI
	MOVQ out_base+48(FP), DX
	MOVQ out_len+56(FP), BX
	SHRQ $4, BX
	JZ   done
	LEAQ (CX*8), R9
	LEAQ (R9)(R9*2), R10
	PCALIGN $64

block:
	// DI, R12, R13 and R11 point at rows 0, 4, 8 and 12 of the block.
	LEAQ   (DI)(R9*4), R12
	LEAQ   (R12)(R9*4), R13
	LEAQ   (R13)(R9*4), R11
	MOVQ   SI, AX
	MOVQ   CX, R8
	SHRQ   $2, R8
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	PCALIGN $64

cols:
	VBROADCASTSD 0(AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	DIST2GROUP(DI, Y0)
	DIST2GROUP(R12, Y1)
	DIST2GROUP(R13, Y2)
	DIST2GROUP(R11, Y3)
	ADDQ         $32, AX
	ADDQ         $32, DI
	ADDQ         $32, R12
	ADDQ         $32, R13
	ADDQ         $32, R11
	DECQ         R8
	JNZ          cols

	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $128, DX

	// R11 has reached row 13; row 16 opens the next block.
	LEAQ (R11)(R10*1), DI
	DECQ BX
	JNZ  block
	VZEROUPPER

done:
	RET

// The constants of math.Exp's amd64 body (math/exp_amd64.s), each four
// times: one 32-byte operand per constant.
#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

#define EXPCONST(off, v) \
	DATA expdata<>+(off+0)(SB)/8, v; \
	DATA expdata<>+(off+8)(SB)/8, v; \
	DATA expdata<>+(off+16)(SB)/8, v; \
	DATA expdata<>+(off+24)(SB)/8, v

EXPCONST(0, $LOG2E)
EXPCONST(32, $LN2U)
EXPCONST(64, $LN2L)
EXPCONST(96, $0.0625)
EXPCONST(128, $2.4801587301587301587e-5)
EXPCONST(160, $1.9841269841269841270e-4)
EXPCONST(192, $1.3888888888888888889e-3)
EXPCONST(224, $8.3333333333333333333e-3)
EXPCONST(256, $4.1666666666666666667e-2)
EXPCONST(288, $1.6666666666666666667e-1)
EXPCONST(320, $0.5)
EXPCONST(352, $1.0)
EXPCONST(384, $2.0)
EXPCONST(416, $1023)
EXPCONST(448, $1)
EXPCONST(480, $1022)
EXPCONST(512, $-52)
EXPCONST(544, $0x0010000000000000) // 2^-1022
GLOBL expdata<>(SB), RODATA|NOPTR, $576

// The lanes' k must lie in [-1022, 1023], so that k+1023 is the biased
// exponent of a normal 2^k: math.Exp's own ldexp range.
DATA expk<>+0(SB)/4, $1023
DATA expk<>+4(SB)/4, $1023
DATA expk<>+8(SB)/4, $1023
DATA expk<>+12(SB)/4, $1023
DATA expk<>+16(SB)/4, $-1022
DATA expk<>+20(SB)/4, $-1022
DATA expk<>+24(SB)/4, $-1022
DATA expk<>+28(SB)/4, $-1022
GLOBL expk<>(SB), RODATA|NOPTR, $32

// EXPPOLY turns the arguments in Y0, whose k are in X2, into the
// y = exp(x − k·ln2) of math.Exp's FMA branch, in Y0: the reduction by
// k·ln2 in two parts, the division by 16, the polynomial and the four
// squarings.
#define EXPPOLY \
	VCVTDQ2PD    X2, Y1; \
	VFNMADD231PD expdata<>+32(SB), Y1, Y0; \
	VFNMADD231PD expdata<>+64(SB), Y1, Y0; \
	VMULPD       expdata<>+96(SB), Y0, Y0; \
	VMOVUPD      expdata<>+128(SB), Y1; \
	VFMADD213PD  expdata<>+160(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+192(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+224(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+256(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+288(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+320(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+352(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expdata<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expdata<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expdata<>+384(SB), Y0, Y1; \
	VMULPD       Y1, Y0, Y0; \
	VADDPD       expdata<>+384(SB), Y0, Y1; \
	VFMADD213PD  expdata<>+352(SB), Y1, Y0

// func expScaled4(v []float64, c float64) int
//
// v[j] = math.Exp(c·v[j]) four values at a time, by the FMA branch of
// math.Exp (math/exp_amd64.s) on four lanes: the same reduction by
// k·ln2, the same polynomial and squarings, the same 2^k. A group with
// a lane whose k falls outside [-1022, 1023] takes math.Exp's underflow
// branch, lane by lane, if each such lane's argument is below zero (a
// subnormal or zero result, or -Inf). It stops before the first group
// with a lane that is NaN, +Inf or would overflow, leaving that group
// and the rest unchanged, and returns how many values it wrote: a
// multiple of 4.
TEXT ·expScaled4(SB), NOSPLIT, $0-40
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         SI, DI
	SHRQ         $2, CX
	JZ           stop
	VBROADCASTSD c+24(FP), Y14
	VMOVDQU      expk<>+0(SB), X12
	VMOVDQU      expk<>+16(SB), X13
	PCALIGN      $64

loop:
	VMOVUPD    (SI), Y0
	VMULPD     Y14, Y0, Y0
	VMULPD     expdata<>+0(SB), Y0, Y1
	VCVTPD2DQY Y1, X2

	// Any k out of range, k > 1023 or -1022 > k, takes the underflow
	// branch.
	VPCMPGTD X12, X2, X3
	VPCMPGTD X2, X13, X4
	VPOR     X3, X4, X3
	VPTEST   X3, X3
	JNZ      underflow

	EXPPOLY

	// 2^k from the biased exponent k+1023.
	VPMOVSXDQ X2, Y3
	VPADDQ    expdata<>+416(SB), Y3, Y3
	VPSLLQ    $52, Y3, Y3
	VMULPD    Y3, Y0, Y0

store:
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     loop

stop:
	VZEROUPPER
	SUBQ SI, DI
	NEGQ DI
	SHRQ $3, DI
	MOVQ DI, ret+32(FP)
	RET

underflow:
	// X3 marks the lanes out of range. Stop if one of them has an
	// argument that is not below zero: NaN, +Inf or an overflow, which
	// math.Exp handles.
	VPMOVSXDQ X3, Y3
	VXORPD    Y4, Y4, Y4
	VCMPPD    $0x11, Y4, Y0, Y4
	VPANDN    Y3, Y4, Y4
	VPTEST    Y4, Y4
	JNZ       stop

	EXPPOLY

	// math.Exp's ldexp on each lane, with b = k+1023: y·2^k if b ≥ 1;
	// (y·2^(k+1022))·2^-1022 if -52 ≤ b ≤ 0; +0 if b < -52, which
	// includes -Inf (k = -2^31). Lanes with b ≥ 1 multiply by 1.0 the
	// second time, which leaves them exact; lanes with b < -52 multiply
	// by 1.0 both times, so that no product they discard is subnormal
	// and slow.
	VPMOVSXDQ X2, Y3
	VPADDQ    expdata<>+416(SB), Y3, Y3
	VMOVDQU   expdata<>+448(SB), Y5
	VPCMPGTQ  Y3, Y5, Y5
	VMOVDQU   expdata<>+512(SB), Y7
	VPCMPGTQ  Y3, Y7, Y7
	VPAND     expdata<>+480(SB), Y5, Y6
	VPADDQ    Y6, Y3, Y6
	VPSLLQ    $52, Y6, Y6
	VMOVUPD   expdata<>+352(SB), Y8
	VBLENDVPD Y7, Y8, Y6, Y6
	VMULPD    Y6, Y0, Y0
	VPANDN    Y5, Y7, Y5
	VBLENDVPD Y5, expdata<>+544(SB), Y8, Y6
	VMULPD    Y6, Y0, Y0
	VPANDN    Y0, Y7, Y0
	JMP       store

// func axpy4Lanes(y []float64, a *[4]float64, x *[4][]float64)
//
// y[r] += a[0]·x[0][r], then a[1]·x[1][r], a[2]·x[2][r] and
// a[3]·x[3][r], each product and sum rounded on its own, for the first
// len(y)&^3 values, four at a time. Each x[q] must hold len(y) values.
TEXT ·axpy4Lanes(SB), NOSPLIT, $0-40
	MOVQ         y_base+0(FP), DI
	MOVQ         y_len+8(FP), CX
	MOVQ         a+24(FP), AX
	MOVQ         x+32(FP), BX
	SHRQ         $2, CX
	JZ           done
	VBROADCASTSD 0(AX), Y4
	VBROADCASTSD 8(AX), Y5
	VBROADCASTSD 16(AX), Y6
	VBROADCASTSD 24(AX), Y7
	MOVQ         0(BX), R8
	MOVQ         24(BX), R9
	MOVQ         48(BX), R10
	MOVQ         72(BX), R11
	XORQ         AX, AX
	PCALIGN      $64

loop:
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y4, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*1), Y5, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*1), Y6, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R11)(AX*1), Y7, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// StepScan's lane state starts at no index found (-1) with +Inf and
// -Inf as the running minimum and maximum; the lanes hold indices
// 0, 1, 2 and 3 and advance by 4.
DATA scandata<>+0(SB)/8, $0
DATA scandata<>+8(SB)/8, $1
DATA scandata<>+16(SB)/8, $2
DATA scandata<>+24(SB)/8, $3
DATA scandata<>+32(SB)/8, $4
DATA scandata<>+40(SB)/8, $0x7FF0000000000000
DATA scandata<>+48(SB)/8, $0xFFF0000000000000
GLOBL scandata<>(SB), RODATA|NOPTR, $56

// func stepScanLanes(y []float64, t float64, u, w, a []float64, below, above float64, out *scanLanes)
//
// For the first len(y)&^3 values, four at a time: y[r] += t·(u[r] −
// w[r]), each operation rounded on its own, and each lane keeps the
// first of its indices with the smallest new y[r] among a[r] < below and
// the first with the largest among a[r] > above, by strict comparison,
// so NaN is never taken. out receives each lane's minimum, maximum and
// their indices (-1 where a lane took none). u, w and a must hold
// len(y) values.
TEXT ·stepScanLanes(SB), NOSPLIT, $0-128
	MOVQ         y_base+0(FP), SI
	MOVQ         y_len+8(FP), CX
	MOVQ         u_base+32(FP), DX
	MOVQ         w_base+56(FP), R8
	MOVQ         a_base+80(FP), DI
	MOVQ         out+120(FP), R9
	VBROADCASTSD t+24(FP), Y15
	VBROADCASTSD below+104(FP), Y14
	VBROADCASTSD above+112(FP), Y13
	VBROADCASTSD scandata<>+40(SB), Y8
	VBROADCASTSD scandata<>+48(SB), Y4
	VPCMPEQQ     Y9, Y9, Y9
	VPCMPEQQ     Y5, Y5, Y5
	VMOVDQU      scandata<>+0(SB), Y10
	VPBROADCASTQ scandata<>+32(SB), Y11
	SHRQ         $2, CX
	JZ           done
	XORQ         AX, AX
	PCALIGN      $64

loop:
	VMOVUPD   (DX)(AX*1), Y0
	VSUBPD    (R8)(AX*1), Y0, Y0
	VMULPD    Y15, Y0, Y0
	VADDPD    (SI)(AX*1), Y0, Y0
	VMOVUPD   Y0, (SI)(AX*1)
	VMOVUPD   (DI)(AX*1), Y1

	// Minimum: a < below and y < the lane's minimum.
	VCMPPD    $0x11, Y14, Y1, Y2
	VCMPPD    $0x11, Y8, Y0, Y3
	VANDPD    Y2, Y3, Y3
	VBLENDVPD Y3, Y0, Y8, Y8
	VBLENDVPD Y3, Y10, Y9, Y9

	// Maximum: above < a and the lane's maximum < y.
	VCMPPD    $0x11, Y1, Y13, Y2
	VCMPPD    $0x11, Y0, Y4, Y3
	VANDPD    Y2, Y3, Y3
	VBLENDVPD Y3, Y0, Y4, Y4
	VBLENDVPD Y3, Y10, Y5, Y5

	VPADDQ Y11, Y10, Y10
	ADDQ   $32, AX
	DECQ   CX
	JNZ    loop

done:
	VMOVUPD Y8, 0(R9)
	VMOVUPD Y4, 32(R9)
	VMOVDQU Y9, 64(R9)
	VMOVDQU Y5, 96(R9)
	VZEROUPPER
	RET
