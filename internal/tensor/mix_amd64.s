//go:build amd64 && !purego

#include "textflag.h"

// CHOCO's mix (mix.go), four coordinates per YMM register: the row's sum
// and the two outputs of each coordinate stay in registers, so one pass over
// the coordinates reads each source row, x and x̂ once and writes post and prj
// once. A block is sixteen coordinates in Y0-Y3, the sources its inner
// loop, so a row's address is computed once per block; the Go loop takes the
// len % 16 coordinates after the last block.
//
// Registers: DI post, R8 prj, SI x, R9 x̂ (row self), BX the block's column in
// row 0, R10 order, R11 len(order), R12 ws, R14 a row's stride in bytes, CX
// the coordinates left, Y15 gamma, Y14 len(order). A row's block is at
// (BX)(R13*1) with R13 = order[k] * R14.

// ROW loads R13 with the offset of row order[k] from row 0, k in DX.
#define ROW MOVQ (R10)(DX*8), R13; IMULQ R14, R13

// UTERM adds row R13's four coordinates at off to the running sum M, the
// add's first source.
#define UTERM(off, M) VADDPD off(BX)(R13*1), M, M

// WTERM adds the product of row R13's four coordinates at off with the
// weight in Y13 to M: the product is the multiply's first source and the
// add's, the Go loop's operand order.
#define WTERM(off, M) VMOVUPD off(BX)(R13*1), Y4; VMULPD Y13, Y4, Y4; VADDPD M, Y4, M

// POST writes post and prj at off from the mix M:
// post = gamma*M + (x - gamma*x̂), prj = gamma*M + (x̂ - gamma*x̂). Each
// product's first source is the vector, and each final add's the
// parenthesised difference: the Go loop's operand order.
#define POST(off, M) \
	VMOVUPD off(R9), Y4;  \
	VMULPD  Y15, Y4, Y5;  \
	VMULPD  Y15, M, M;    \
	VMOVUPD off(SI), Y6;  \
	VSUBPD  Y5, Y6, Y6;   \
	VADDPD  M, Y6, Y6;    \
	VMOVUPD Y6, off(DI);  \
	VSUBPD  Y5, Y4, Y4;   \
	VADDPD  M, Y4, Y4;    \
	VMOVUPD Y4, off(R8)

// func chocoMixAVX2(post, prj, x, hat *float64, dim, self int, order *int, sources int, ws *float64, gamma float64, n int)
TEXT ·chocoMixAVX2(SB), NOSPLIT, $0-88
	MOVQ         post+0(FP), DI
	MOVQ         prj+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         hat+24(FP), BX
	MOVQ         dim+32(FP), R14
	SHLQ         $3, R14
	MOVQ         self+40(FP), R9
	IMULQ        R14, R9
	ADDQ         BX, R9
	MOVQ         order+48(FP), R10
	MOVQ         sources+56(FP), R11
	MOVQ         ws+64(FP), R12
	MOVQ         n+80(FP), CX
	CVTSQ2SD     R11, X14
	VBROADCASTSD X14, Y14
	VBROADCASTSD gamma+72(FP), Y15
	TESTQ        R12, R12
	JNZ          weighted16

uniform16:
	XORQ    DX, DX
	ROW
	VMOVUPD (BX)(R13*1), Y0
	VMOVUPD 32(BX)(R13*1), Y1
	VMOVUPD 64(BX)(R13*1), Y2
	VMOVUPD 96(BX)(R13*1), Y3
	INCQ    DX

usum16:
	CMPQ DX, R11
	JEQ  udiv16
	ROW
	UTERM(0, Y0)
	UTERM(32, Y1)
	UTERM(64, Y2)
	UTERM(96, Y3)
	INCQ DX
	JMP  usum16

udiv16:
	VDIVPD Y14, Y0, Y0
	VDIVPD Y14, Y1, Y1
	VDIVPD Y14, Y2, Y2
	VDIVPD Y14, Y3, Y3
	POST(0, Y0)
	POST(32, Y1)
	POST(64, Y2)
	POST(96, Y3)
	ADDQ   $128, DI
	ADDQ   $128, R8
	ADDQ   $128, SI
	ADDQ   $128, R9
	ADDQ   $128, BX
	SUBQ   $16, CX
	JNZ    uniform16
	VZEROUPPER
	RET

weighted16:
	XORQ         DX, DX
	ROW
	VBROADCASTSD (R12), Y13
	VMOVUPD      (BX)(R13*1), Y0
	VMULPD       Y13, Y0, Y0
	VMOVUPD      32(BX)(R13*1), Y1
	VMULPD       Y13, Y1, Y1
	VMOVUPD      64(BX)(R13*1), Y2
	VMULPD       Y13, Y2, Y2
	VMOVUPD      96(BX)(R13*1), Y3
	VMULPD       Y13, Y3, Y3
	INCQ         DX

wsum16:
	CMPQ         DX, R11
	JEQ          wpost16
	ROW
	VBROADCASTSD (R12)(DX*8), Y13
	WTERM(0, Y0)
	WTERM(32, Y1)
	WTERM(64, Y2)
	WTERM(96, Y3)
	INCQ         DX
	JMP          wsum16

wpost16:
	POST(0, Y0)
	POST(32, Y1)
	POST(64, Y2)
	POST(96, Y3)
	ADDQ $128, DI
	ADDQ $128, R8
	ADDQ $128, SI
	ADDQ $128, R9
	ADDQ $128, BX
	SUBQ $16, CX
	JNZ  weighted16
	VZEROUPPER
	RET
