//go:build amd64 && !purego

// The AVX2 twin of exp.go's loop: math.archExp (GOROOT src/math/exp_amd64.s)
// mirrored instruction for instruction past its early exits, packed where
// archExp is scalar, four independent lanes per YMM register. archExp has
// two paths and takes the fused one when package math's useFMA holds; so
// does this kernel, by the fma argument (useFMA, the probe in exp_amd64.go),
// with one loop per path. This is the one kernel in the package that uses
// FMA, because here the oracle does. The comments on the right quote archExp.
// Before any arithmetic a group is tested against [expLo, expHi] (VCMPPD,
// VMOVMSKPD); a group with a lane outside it, NaN included, ends the call
// unwritten and the caller hands it to math.Exp. n > 0 is a multiple of 4; a
// group reads 32 bytes of src and stores 32 of dst; VZEROUPPER + RET (see
// gemm_amd64.s).
//
// Go operand order is the reverse of Intel's: `VSUBPD b, a, d` is d = a - b,
// `VCMPPD $p, b, a, d` is d = a <p> b, `VFNMADD231PD m, b, d` is
// d = -(b*m) + d and `VFMADD213PD m, b, d` is d = b*d + m.

#include "textflag.h"

// A row of expConst as a packed memory operand.
#define ROW(i) (32*i)(R8)

// The domain test — predicate 0x19 is NGE_UQ (below expLo, or NaN), 0x16
// NLE_UQ (above expHi, or NaN) — then k: MULSD X0, X1 (Log2e * x),
// CVTSD2SL X1, BX and CVTSL2SD BX, X1. Leaves Y0 = x, Y1 = float64(k) and
// X2 = the four int32 k.
#define EXPHEAD \
	VMOVUPD    (SI), Y0; \
	VCMPPD     $0x19, Y15, Y0, Y1; \
	VCMPPD     $0x16, Y14, Y0, Y2; \
	VORPD      Y2, Y1, Y1; \
	VMOVMSKPD  Y1, AX; \
	TESTL      AX, AX; \
	JNZ        expdone; \
	VMULPD     Y13, Y0, Y1; \
	VCVTPD2DQY Y1, X2; \
	VCVTDQ2PD  X2, Y1

// x *= x + 2 (MOVSD 2, X1; ADDSD X0, X1; MULSD X1, X0)
#define SQUARE \
	VADDPD Y12, Y0, Y3; \
	VMULPD Y3, Y0, Y0

// ldexp: 2^k built from its exponent field k + 0x3FF (ADDL $0x3FF, BX;
// SHLQ $52, BX; MULSD X1, X0), stored, next group.
#define EXPTAIL \
	VPADDD    X10, X2, X2; \
	VPMOVZXDQ X2, Y2; \
	VPSLLQ    $52, Y2, Y2; \
	VMULPD    Y2, Y0, Y0; \
	VMOVUPD   Y0, (DI); \
	ADDQ      $32, SI; \
	ADDQ      $32, DI; \
	SUBQ      $4, CX

// func expAVX2(dst, src *float64, n int, fma bool) int
TEXT ·expAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVBLZX      fma+24(FP), DX
	LEAQ         ·expConst(SB), R8
	VMOVUPD      ROW(13), Y15 // expLo
	VMOVUPD      ROW(14), Y14 // expHi
	VMOVUPD      ROW(0), Y13 // Log2e
	VMOVUPD      ROW(12), Y12 // 2
	VMOVUPD      ROW(11), Y11 // 1
	MOVL         $0x3FF, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, X10 // the exponent bias, in four dwords
	TESTL        DX, DX
	JNZ          fmaloop

plainloop:
	EXPHEAD
	VMULPD       ROW(1), Y1, Y3 // MULSD X1, X2: Ln2U * k
	VSUBPD       Y3, Y0, Y0 // SUBSD X2, X0
	VMULPD       ROW(2), Y1, Y3 // Ln2L * k
	VSUBPD       Y3, Y0, Y0
	VMULPD       ROW(3), Y0, Y0 // MULSD $0.0625, X0
	VMULPD       ROW(4), Y0, Y3 // Taylor series, Horner from 1/8!
	VADDPD       ROW(5), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       ROW(6), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       ROW(7), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       ROW(8), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       ROW(9), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       ROW(10), Y3, Y3
	VMULPD       Y0, Y3, Y3
	VADDPD       Y11, Y3, Y3
	VMULPD       Y3, Y0, Y0 // MULSD X1, X0
	SQUARE
	SQUARE
	SQUARE
	SQUARE
	VADDPD       Y11, Y0, Y0 // ADDSD 1, X0
	EXPTAIL
	JNZ          plainloop
	JMP          expdone

fmaloop:
	EXPHEAD
	VFNMADD231PD ROW(1), Y1, Y0 // VFNMADD231SD X2, X1, X0: x - k*Ln2U, one rounding
	VFNMADD231PD ROW(2), Y1, Y0
	VMULPD       ROW(3), Y0, Y0
	VMOVUPD      ROW(4), Y3
	VFMADD213PD  ROW(5), Y0, Y3 // VFMADD213SD: p*x + c, one rounding
	VFMADD213PD  ROW(6), Y0, Y3
	VFMADD213PD  ROW(7), Y0, Y3
	VFMADD213PD  ROW(8), Y0, Y3
	VFMADD213PD  ROW(9), Y0, Y3
	VFMADD213PD  ROW(10), Y0, Y3
	VFMADD213PD  Y11, Y0, Y3
	VMULPD       Y3, Y0, Y0
	SQUARE
	SQUARE
	SQUARE
	VADDPD       Y12, Y0, Y3 // VADDSD 2, X0, X1
	VFMADD213PD  Y11, Y3, Y0 // VFMADD213SD 1, X1, X0: the last square and the 1, fused
	EXPTAIL
	JNZ          fmaloop

expdone:
	MOVQ         n+16(FP), AX
	SUBQ         CX, AX
	MOVQ         AX, ret+32(FP)
	VZEROUPPER
	RET
