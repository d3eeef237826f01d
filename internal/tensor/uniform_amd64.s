//go:build amd64 && !purego

// The AVX2 twin of uniform.go's loop; the contract is stated there. Go
// operand order is the reverse of Intel's: `XORQ a, b` is b ^= a, `VSUBPD b,
// a, d` is d = a - b, and `VPBLENDD $m, b, a, d` takes dword i of d from b
// where bit i of m is set, from a elsewhere.

#include "textflag.h"

// STEP stores s1 (R9), the word xoshiro256**'s output reads, at o(DI) and
// advances the state R8-R11 one step; R12 is t = s1 << 17.
#define STEP(o) \
	MOVQ R9, o(DI); \
	MOVQ R9, R12;   \
	SHLQ $17, R12;  \
	XORQ R8, R10;   \
	XORQ R9, R11;   \
	XORQ R10, R9;   \
	XORQ R11, R8;   \
	XORQ R12, R10;  \
	ROLQ $45, R11

// FINISH turns the four raw s1 words at P into draws in place (Y12-Y15 hold
// the constants):
//   x = rotl(s1*5, 7)*9     VPSLLQ/VPADDQ, VPSLLQ/VPSRLQ/VPOR, VPSLLQ/VPADDQ
//   q = x >> 11, hi = x >> 43
//   lo' = 2^52 + low32(q)    VPBLENDD: the high dwords of 2^52's bits
//   hi' = 2^84 + hi*2^32     VPOR with 2^84's bits
//   (hi' - (2^84 + 2^52)) + lo', then * 2^-53
#define FINISH(P) \
	VMOVDQU  P, Y0;              \
	VPSLLQ   $2, Y0, Y1;         \
	VPADDQ   Y0, Y1, Y0;         \
	VPSLLQ   $7, Y0, Y1;         \
	VPSRLQ   $57, Y0, Y0;        \
	VPOR     Y1, Y0, Y0;         \
	VPSLLQ   $3, Y0, Y1;         \
	VPADDQ   Y0, Y1, Y0;         \
	VPSRLQ   $11, Y0, Y1;        \
	VPSRLQ   $43, Y0, Y0;        \
	VPBLENDD $0xAA, Y15, Y1, Y1; \
	VPOR     Y14, Y0, Y0;        \
	VSUBPD   Y13, Y0, Y0;        \
	VADDPD   Y1, Y0, Y0;         \
	VMULPD   Y12, Y0, Y0;        \
	VMOVUPD  Y0, P

// func uniformsAVX2(dst *float64, n int, s *[4]uint64)
//
// n > 0 and a multiple of 4. The chain (DI) writes four raw words an
// iteration, and the finish (DX) trails it by four groups, 128 bytes: the
// chain is a serial dependency the finish's lanes can fill the gaps of, and a
// 32-byte load of four 8-byte stores only just made stalls on store
// forwarding, where one of stores four iterations old does not.
TEXT ·uniformsAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ s+16(FP), SI
	MOVQ 0(SI), R8
	MOVQ 8(SI), R9
	MOVQ 16(SI), R10
	MOVQ 24(SI), R11

	MOVQ         $0x4330000000000000, AX // 2^52
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ         $0x4530000000000000, AX // 2^84
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         $0x4530000000100000, AX // 2^84 + 2^52
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ         $0x3CA0000000000000, AX // 2^-53
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12

	MOVQ DI, DX
	MOVQ $4, BX

ahead:
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	ADDQ $32, DI
	SUBQ $4, CX
	JZ   drain
	DECQ BX
	JNZ  ahead

steady:
	STEP(0)
	STEP(8)
	STEP(16)
	STEP(24)
	FINISH((DX))
	ADDQ $32, DX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ  steady

drain:
	FINISH((DX))
	ADDQ $32, DX
	CMPQ DX, DI
	JNE  drain

	MOVQ R8, 0(SI)
	MOVQ R9, 8(SI)
	MOVQ R10, 16(SI)
	MOVQ R11, 24(SI)
	VZEROUPPER
	RET
