//go:build amd64 && !purego

// The AVX2 twin of softmax.go's loop, four rows to a register: a lane is one
// row, and every step is the scalar loop's for that row, in its order. A
// column of the group is gathered from the four rows (GATHER); the maximum
// is `if v > mx` as VCMPPD GT_OQ + VBLENDVPD (a NaN in column 0 sticks, a
// later NaN is skipped, the first of ±0 is kept), the sum adds exp(v - mx)
// from +0 in column order, logZ is mx + log(sum), and a gradient is
// exp(v - logZ) * scale, scattered back to its row. The exp is
// math.archExp (GOROOT src/math/exp_amd64.s) mirrored instruction for
// instruction past its early exits, on the path math.Exp takes (the fma
// argument, useFMA in softmax_amd64.go): the one place in the package that
// fuses, because the oracle does. The log is math.archLog as polar_amd64.s
// mirrors it. Comments on the right quote archExp.
//
// THE DOMAIN. Both exps run only where every argument lies in [expLo, expHi];
// a softmax argument is never above 0 (v <= mx <= logZ), so one NGE_UQ test
// against expLo per column catches the rest and NaN (pass 2), and the least
// logit less logZ bounds pass 3's arguments, rounding being monotone. A group
// failing either test ends the call before anything of it is stored.
//
// Go operand order is the reverse of Intel's: `VSUBPD b, a, d` is d = a - b,
// `VCMPPD $p, b, a, d` is d = a <p> b, `VBLENDVPD m, b, a, d` is d = m ? b :
// a, `VFNMADD231PD m, b, d` is d = -(b*m) + d and `VFMADD213PD m, b, d` is
// d = b*d + m.

#include "textflag.h"

// A row of expConst, and of polarConst, as a packed memory operand.
#define ROW(i) (32*i)(R8)
#define LROW(i) (32*i)(AX)

// GATHER leaves the logit at P of lane 0's row and R9, R10, R11 bytes on in
// Y8.
#define GATHER(P) \
	VMOVSD      (P), X8; \
	VMOVHPD     (P)(R9*1), X8, X8; \
	VMOVSD      (P)(R10*1), X9; \
	VMOVHPD     (P)(R11*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8

// k: MULSD X0, X1 (Log2e * x), CVTSD2SL X1, BX and CVTSL2SD BX, X1. Leaves
// Y1 = float64(k) and X2 = the four int32 k.
#define EXPK \
	VMULPD     Y13, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// x *= x + 2 (MOVSD 2, X1; ADDSD X0, X1; MULSD X1, X0)
#define SQUARE \
	VADDPD Y12, Y0, Y3; \
	VMULPD Y3, Y0, Y0

// The unfused path: MULSD X1, X2 and SUBSD X2, X0 for Ln2U and Ln2L, MULSD
// $0.0625, the Taylor series by Horner from 1/8!, MULSD X1, X0, four
// squarings and ADDSD 1.
#define EXPPLAIN \
	EXPK; \
	VMULPD ROW(1), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD ROW(2), Y1, Y3; \
	VSUBPD Y3, Y0, Y0; \
	VMULPD ROW(3), Y0, Y0; \
	VMULPD ROW(4), Y0, Y3; \
	VADDPD ROW(5), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD ROW(6), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD ROW(7), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD ROW(8), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD ROW(9), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD ROW(10), Y3, Y3; \
	VMULPD Y0, Y3, Y3; \
	VADDPD Y11, Y3, Y3; \
	VMULPD Y3, Y0, Y0; \
	SQUARE; \
	SQUARE; \
	SQUARE; \
	SQUARE; \
	VADDPD Y11, Y0, Y0

// The fused path: VFNMADD231SD X2, X1, X0 for each reduction step and
// VFMADD213SD for each Horner step (one rounding each), three squarings,
// then VADDSD 2, X0, X1 and VFMADD213SD 1, X1, X0: the last square and the
// 1, fused.
#define EXPFUSED \
	EXPK; \
	VFNMADD231PD ROW(1), Y1, Y0; \
	VFNMADD231PD ROW(2), Y1, Y0; \
	VMULPD       ROW(3), Y0, Y0; \
	VMOVUPD      ROW(4), Y3; \
	VFMADD213PD  ROW(5), Y0, Y3; \
	VFMADD213PD  ROW(6), Y0, Y3; \
	VFMADD213PD  ROW(7), Y0, Y3; \
	VFMADD213PD  ROW(8), Y0, Y3; \
	VFMADD213PD  ROW(9), Y0, Y3; \
	VFMADD213PD  ROW(10), Y0, Y3; \
	VFMADD213PD  Y11, Y0, Y3; \
	VMULPD       Y3, Y0, Y0; \
	SQUARE; \
	SQUARE; \
	SQUARE; \
	VADDPD       Y12, Y0, Y3; \
	VFMADD213PD  Y11, Y3, Y0

// ldexp: 2^k built from its exponent field k + 0x3FF (ADDL $0x3FF, BX;
// SHLQ $52, BX; MULSD X1, X0).
#define EXPSCALE \
	VPADDD    X10, X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ    $52, Y2, Y2; \
	VMULPD    Y2, Y0, Y0

// func softmaxAVX2(x *float64, cols, groups, o1, o2, o3, lanes int, logZ, d *float64, scale float64, fma bool) int
//
// SI is the group's lane-0 row, R14 walks its columns; Y4 holds mx, Y5 the
// sum and then logZ, Y6 the least logit, Y7 the domain flags; Y10-Y15 the
// exponent bias, 1, 2, Log2e, scale and expLo.
TEXT ·softmaxAVX2(SB), NOSPLIT, $0-96
	MOVQ         x+0(FP), SI
	MOVQ         cols+8(FP), DX
	MOVQ         groups+16(FP), BX
	MOVQ         o1+24(FP), R9
	MOVQ         o2+32(FP), R10
	MOVQ         o3+40(FP), R11
	MOVQ         logZ+56(FP), R12
	MOVQ         d+64(FP), DI
	VBROADCASTSD scale+72(FP), Y14
	MOVBLZX      fma+80(FP), R13
	LEAQ         ·expConst(SB), R8
	VMOVUPD      ROW(13), Y15 // expLo
	VMOVUPD      ROW(0), Y13 // Log2e
	VMOVUPD      ROW(12), Y12 // 2
	VMOVUPD      ROW(11), Y11 // 1
	MOVL         $0x3FF, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10 // the exponent bias, in four dwords

group:
	// Pass 1: mx, and the least logit for pass 3's domain test.
	MOVQ      SI, R14
	GATHER(R14)
	VMOVAPD   Y8, Y4
	VMOVAPD   Y8, Y6
	MOVQ      DX, CX
	DECQ      CX
	JZ        sum

maxcol:
	ADDQ      $8, R14
	GATHER(R14)
	VCMPPD    $0x1E, Y4, Y8, Y9 // v GT_OQ mx
	VBLENDVPD Y9, Y8, Y4, Y4
	VMINPD    Y8, Y6, Y6
	DECQ      CX
	JNZ       maxcol

sum:
	// Pass 2: sum += exp(v - mx), flagging an argument below expLo or NaN.
	VXORPD Y5, Y5, Y5
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R14
	MOVQ   DX, CX

sumcol:
	GATHER(R14)
	VSUBPD Y4, Y8, Y0
	VCMPPD $0x19, Y15, Y0, Y9 // NGE_UQ
	VORPD  Y9, Y7, Y7
	TESTQ  R13, R13
	JNZ    sumfused
	EXPPLAIN
	JMP    sumscale

sumfused:
	EXPFUSED

sumscale:
	EXPSCALE
	VADDPD    Y0, Y5, Y5
	ADDQ      $8, R14
	DECQ      CX
	JNZ       sumcol
	VMOVMSKPD Y7, AX
	TESTL     AX, AX
	JNZ       declined

	// log(sum): f1, ki := math.Frexp(x); k := float64(ki)
	LEAQ         ·polarConst(SB), AX
	MOVQ         $0x000FFFFFFFFFFFFF, R14
	VMOVQ        R14, X9
	VPBROADCASTQ X9, Y9
	VANDPD       Y9, Y5, Y2
	VORPD        LROW(0), Y2, Y2 // f1 = mantissa | 0.5
	VPSRLQ       $52, Y5, Y1
	VEXTRACTF128 $1, Y1, X3
	VSHUFPS      $0x88, X3, X1, X1 // the four low dwords
	MOVL         $0x3FE, R14
	VMOVD        R14, X9
	VPBROADCASTD X9, X9
	VPSUBD       X9, X1, X1 // SUBL $0x3FE
	VCVTDQ2PD    X1, Y1 // k
	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VMOVUPD      LROW(1), Y9
	VCMPPD       $5, Y2, Y9, Y3 // cmpnlt: Sqrt2/2 NLT f1, 0 or ^0
	VANDPD       LROW(2), Y3, Y3 // 0 or 1
	VSUBPD       Y3, Y1, Y1
	VADDPD       LROW(2), Y3, Y3 // 1 or 2
	VMULPD       Y3, Y2, Y2
	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD       LROW(2), Y2, Y2
	VADDPD       LROW(3), Y2, Y3
	VDIVPD       Y3, Y2, Y3
	VMULPD       Y3, Y3, Y7
	VMULPD       Y7, Y7, Y8
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD       LROW(4), Y8, Y9
	VADDPD       LROW(5), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       LROW(6), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       LROW(7), Y9, Y9
	VMULPD       Y9, Y7, Y7
	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD       LROW(8), Y8, Y9
	VADDPD       LROW(9), Y9, Y9
	VMULPD       Y8, Y9, Y9
	VADDPD       LROW(10), Y9, Y9
	VMULPD       Y9, Y8, Y8
	VADDPD       Y8, Y7, Y7
	// hfsq := 0.5 * f * f
	VMULPD       LROW(0), Y2, Y5
	VMULPD       Y2, Y5, Y5
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD       Y5, Y7, Y7
	VMULPD       Y7, Y3, Y3
	VMULPD       LROW(11), Y1, Y9
	VADDPD       Y9, Y3, Y3
	VSUBPD       Y3, Y5, Y5
	VSUBPD       Y2, Y5, Y5
	VMULPD       LROW(12), Y1, Y1
	VSUBPD       Y5, Y1, Y0
	// logZ = mx + log(sum)
	VADDPD       Y0, Y4, Y5

	TESTQ     DI, DI
	JZ        store
	VSUBPD    Y5, Y6, Y9 // the least argument of pass 3
	VCMPPD    $0x19, Y15, Y9, Y9
	VMOVMSKPD Y9, AX
	TESTL     AX, AX
	JNZ       declined

store:
	MOVQ       lanes+48(FP), AX
	CMPQ       AX, $4
	JLT        storefew
	VMOVUPD    Y5, (R12)
	JMP        grad

storefew:
	SHLQ       $5, AX
	LEAQ       ·edgeMask(SB), R14
	VMOVDQU    (R14)(AX*1), Y9
	VMASKMOVPD Y5, Y9, (R12)

grad:
	// Pass 3: d = exp(v - logZ) * scale, a column's four lanes stored to
	// their rows.
	TESTQ DI, DI
	JZ    next
	MOVQ  SI, R14
	MOVQ  DI, AX
	MOVQ  DX, CX

gradcol:
	GATHER(R14)
	VSUBPD Y5, Y8, Y0
	TESTQ  R13, R13
	JNZ    gradfused
	EXPPLAIN
	JMP    gradscale

gradfused:
	EXPFUSED

gradscale:
	EXPSCALE
	VMULPD       Y14, Y0, Y0
	VMOVSD       X0, (AX)
	CMPQ         lanes+48(FP), $4
	JLT          gradfew
	VMOVHPD      X0, (AX)(R9*1)
	VEXTRACTF128 $1, Y0, X9
	VMOVSD       X9, (AX)(R10*1)
	VMOVHPD      X9, (AX)(R11*1)

gradstored:
	ADDQ $8, R14
	ADDQ $8, AX
	DECQ CX
	JNZ  gradcol

next:
	MOVQ  DX, AX
	SHLQ  $5, AX // four rows
	ADDQ  AX, SI
	TESTQ DI, DI
	JZ    nextgroup
	ADDQ  AX, DI

nextgroup:
	ADDQ $32, R12
	DECQ BX
	JNZ  group

declined:
	MOVQ groups+16(FP), AX
	SUBQ BX, AX
	MOVQ AX, ret+88(FP)
	VZEROUPPER
	RET

gradfew:
	// A remainder group: lanes 1 and 2 store only where they are rows.
	CMPQ         lanes+48(FP), $2
	JLT          gradstored
	VMOVHPD      X0, (AX)(R9*1)
	CMPQ         lanes+48(FP), $3
	JLT          gradstored
	VEXTRACTF128 $1, Y0, X9
	VMOVSD       X9, (AX)(R10*1)
	JMP          gradstored
