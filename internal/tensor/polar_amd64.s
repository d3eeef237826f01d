//go:build amd64 && !purego

// The AVX2 twin of polar.go's loop. The contract is stated there: four
// independent draws per YMM register, math.archLog (GOROOT
// src/math/log_amd64.s) mirrored instruction for instruction past its
// special-case exits, then the scalar expression's multiply, divide, square
// root and multiply; every step exactly rounded, nothing fused. The comments
// on the right quote archLog. n > 0 is a multiple of 4; a group reads 32 bytes
// of u and of s and stores 32 of dst; VZEROUPPER + RET (see gemm_amd64.s).
//
// Go operand order is the reverse of Intel's: `VSUBPD b, a, d` is d = a - b,
// `VDIVPD b, a, d` is d = a / b, `VCMPPD $p, b, a, d` is d = a <p> b, and
// `VSHUFPS $i, b, a, d` takes d's low two dwords from a and its high two
// from b.

#include "textflag.h"

// A row of polarConst as a packed memory operand.
#define ROW(i) (32*i)(R8)

// func polarAVX2(dst, u, s *float64, n int)
TEXT ·polarAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         u+8(FP), BX
	MOVQ         s+16(FP), SI
	MOVQ         n+24(FP), CX
	LEAQ         ·polarConst(SB), R8
	MOVQ         $0x000FFFFFFFFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15 // the mantissa field
	MOVQ         $0x3FE, AX
	VMOVQ        AX, X9
	VPBROADCASTD X9, X9   // the exponent of 0.5, in four dwords
	VMOVUPD      ROW(0), Y14 // 0.5
	VMOVUPD      ROW(1), Y13 // Sqrt2/2
	VMOVUPD      ROW(2), Y12 // 1
	VMOVUPD      ROW(3), Y11 // 2
	VMOVUPD      ROW(13), Y10 // -2

polarloop:
	VMOVUPD      (SI), Y0 // x: the squared radius whose log this is

	// f1, ki := math.Frexp(x); k := float64(ki)
	VANDPD       Y15, Y0, Y2
	VORPD        Y14, Y2, Y2 // f1 = mantissa | 0.5
	VPSRLQ       $52, Y0, Y1 // SHRQ $52 (x > 0: ANDL $0x7FF changes nothing)
	VEXTRACTF128 $1, Y1, X3
	VSHUFPS      $0x88, X3, X1, X1 // the four low dwords
	VPSUBD       X9, X1, X1 // SUBL $0x3FE
	VCVTDQ2PD    X1, Y1 // k

	// if f1 < math.Sqrt2/2 { k -= 1; f1 *= 2 }
	VCMPPD       $5, Y2, Y13, Y3 // cmpnlt: Sqrt2/2 NLT f1, 0 or ^0
	VANDPD       Y12, Y3, Y3 // 0 or 1
	VSUBPD       Y3, Y1, Y1 // k -= 0 or 1
	VADDPD       Y12, Y3, Y3 // 1 or 2
	VMULPD       Y3, Y2, Y2 // f1 *= 1 or 2

	// f := f1 - 1
	VSUBPD       Y12, Y2, Y2
	// s := f / (2 + f)
	VADDPD       Y2, Y11, Y3
	VDIVPD       Y3, Y2, Y3
	// s2 := s * s; s4 := s2 * s2
	VMULPD       Y3, Y3, Y4
	VMULPD       Y4, Y4, Y5
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD       ROW(4), Y5, Y6
	VADDPD       ROW(5), Y6, Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       ROW(6), Y6, Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       ROW(7), Y6, Y6
	VMULPD       Y6, Y4, Y4
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD       ROW(8), Y5, Y6
	VADDPD       ROW(9), Y6, Y6
	VMULPD       Y5, Y6, Y6
	VADDPD       ROW(10), Y6, Y6
	VMULPD       Y6, Y5, Y5
	// R := t1 + t2
	VADDPD       Y5, Y4, Y4
	// hfsq := 0.5 * f * f
	VMULPD       Y2, Y14, Y7
	VMULPD       Y2, Y7, Y7
	// return k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD       Y7, Y4, Y4 // hfsq+R
	VMULPD       Y4, Y3, Y3 // s*(hfsq+R)
	VMULPD       ROW(11), Y1, Y4 // k*Ln2Lo
	VADDPD       Y4, Y3, Y3
	VSUBPD       Y3, Y7, Y7 // hfsq-(s*(hfsq+R)+k*Ln2Lo)
	VSUBPD       Y2, Y7, Y7 // ... - f
	VMULPD       ROW(12), Y1, Y1 // k*Ln2Hi
	VSUBPD       Y7, Y1, Y1 // math.Log(x)

	// u * math.Sqrt(-2*log/x)
	VMULPD       Y10, Y1, Y1
	VDIVPD       Y0, Y1, Y1
	VSQRTPD      Y1, Y1
	VMULPD       (BX), Y1, Y1
	VMOVUPD      Y1, (DI)

	ADDQ         $32, SI
	ADDQ         $32, BX
	ADDQ         $32, DI
	SUBQ         $4, CX
	JNZ          polarloop
	VZEROUPPER
	RET
