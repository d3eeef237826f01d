//go:build amd64 && !purego

// The AVX2 twins of quant.go's three loops. The contract is stated there:
// four independent coordinates per YMM register, every arithmetic step the
// scalar loop's exactly-rounded operation in the scalar loop's order, no
// fused multiply-add, a truncating conversion whose low word is the level.
// Each kernel takes n > 0 elements, n a multiple of 4, touches exactly
// 8 bytes of levels and 32 of each float64 array per group, and ends in
// VZEROUPPER + RET (see gemm_amd64.s).
//
// Go operand order is the reverse of Intel's: `VSUBPD b, a, d` is d = a - b,
// `VDIVPD b, a, d` is d = a / b, `VANDNPD b, a, d` is d = (^a) & b, and
// `VCMPPD $p, b, a, d` is d = a <p> b.

#include "textflag.h"

// func quantAVX2(levels *int16, vec, u *float64, n int, norm, s float64)
//
// Per lane, quantizeGo's body:
//   a    = |v| / norm * s          VANDNPD, VDIVPD, VMULPD
//   l    = floor(a)                VROUNDPD $9 (toward -Inf, inexact quiet)
//   l   += 1 where u < a - l       VSUBPD, VCMPPD $0x11 (LT, false on NaN),
//                                  VANDPD with 1.0, VADDPD (l + 0 is l)
//   l   |= sign bit of v           -0 converts to 0 and a negative NaN to the
//                                  indefinite, so this is `if v < 0 { lv = -lv }`
//   lv   = low word of int32(l)    VCVTTPD2DQ, VPSHUFB bytes 0,1,4,5,8,9,12,13
TEXT ·quantAVX2(SB), NOSPLIT, $0-48
	MOVQ         levels+0(FP), DI
	MOVQ         vec+8(FP), SI
	MOVQ         u+16(FP), BX
	MOVQ         n+24(FP), CX
	VBROADCASTSD norm+32(FP), Y15
	VBROADCASTSD s+40(FP), Y14
	MOVQ         $0x8000000000000000, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13 // sign bit
	MOVQ         $0x3FF0000000000000, AX
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12 // 1.0
	MOVQ         $0x0D0C090805040100, AX
	VMOVQ        AX, X11 // the low word of each int32, packed

quantloop:
	VMOVUPD     (SI), Y0
	VANDNPD     Y0, Y13, Y1
	VDIVPD      Y15, Y1, Y1
	VMULPD      Y14, Y1, Y1
	VROUNDPD    $9, Y1, Y2
	VSUBPD      Y2, Y1, Y1
	VMOVUPD     (BX), Y3
	VCMPPD      $0x11, Y1, Y3, Y3
	VANDPD      Y12, Y3, Y3
	VADDPD      Y3, Y2, Y2
	VANDPD      Y13, Y0, Y0
	VORPD       Y0, Y2, Y2
	VCVTTPD2DQY Y2, X2
	VPSHUFB     X11, X2, X2
	VMOVQ       X2, (DI)
	ADDQ        $32, SI
	ADDQ        $32, BX
	ADDQ        $8, DI
	SUBQ        $4, CX
	JNZ         quantloop
	VZEROUPPER
	RET

// DEQUANT4 leaves norm * float64(level) / s for the four levels at (SI) in
// Y0: sign-extend to int32, convert (exact), multiply, then divide.
#define DEQUANT4 \
	VPMOVSXWD (SI), X0; \
	VCVTDQ2PD X0, Y0; \
	VMULPD    Y0, Y15, Y0; \
	VDIVPD    Y14, Y0, Y0

// func dequantAVX2(dst *float64, levels *int16, n int, norm, s float64)
TEXT ·dequantAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         levels+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD norm+24(FP), Y15
	VBROADCASTSD s+32(FP), Y14

dequantloop:
	DEQUANT4
	VMOVUPD Y0, (DI)
	ADDQ    $8, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     dequantloop
	VZEROUPPER
	RET

// func accumAVX2(dst *float64, levels *int16, n int, norm, s float64)
//
// dst[i] += the dequantized value. The term is the add's first source, as it
// is in the ADDSD go1.24 compiles the loop to: where the term and dst[i] are
// both NaN the term's payload survives. Go leaves that order to the compiler,
// so nothing may depend on it.
TEXT ·accumAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         levels+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSD norm+24(FP), Y15
	VBROADCASTSD s+32(FP), Y14

accumloop:
	DEQUANT4
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $8, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     accumloop
	VZEROUPPER
	RET
