//go:build amd64 && !purego

// SSE2 micro-kernels for the matmul hot paths. Each XMM lane holds ONE C
// element, so MULPD/ADDPD perform exactly the scalar kernel's
// separately-rounded multiply and add per element, per k, in ascending k —
// vectorizing across independent output columns preserves bit-exactness
// (unlike FMA, which would fuse the rounding). SSE2 only: no MOVDDUP, no
// VEX encodings, so the kernels run on every amd64 the Go baseline targets.

#include "textflag.h"

// func axpyList8(off *int, val *float64, n int, b, c *float64, nblk int)
//
// For each of nblk 8-column blocks of the C row:
//   c[j] += val[t] * b[off[t]+j]   (j = 0..7, t = 0..n-1 ascending)
// The list holds only non-zero coefficients, so the naive kernel's
// zero-coefficient skip never fires and the loop needs no branches. Blocks
// are taken two at a time while two remain: sixteen accumulator lanes in
// X0-X7 give the adds eight independent chains and halve the list reads per
// multiply-add; X8 carries the broadcast coefficient; X9-X12 stream B.
TEXT ·axpyList8(SB), NOSPLIT, $0-48
	MOVQ off+0(FP), R10
	MOVQ val+8(FP), R11
	MOVQ n+16(FP), R12
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DX
	MOVQ nblk+40(FP), R13

blk16:
	CMPQ R13, $2
	JLT  blk8
	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3
	MOVUPD 64(DX), X4
	MOVUPD 80(DX), X5
	MOVUPD 96(DX), X6
	MOVUPD 112(DX), X7
	XORQ   CX, CX

loop16:
	MOVQ     (R10)(CX*8), AX
	MOVSD    (R11)(CX*8), X8
	UNPCKLPD X8, X8
	LEAQ     (BX)(AX*8), SI

	MOVUPD (SI), X9
	MOVUPD 16(SI), X10
	MOVUPD 32(SI), X11
	MOVUPD 48(SI), X12
	MULPD  X8, X9
	MULPD  X8, X10
	MULPD  X8, X11
	MULPD  X8, X12
	ADDPD  X9, X0
	ADDPD  X10, X1
	ADDPD  X11, X2
	ADDPD  X12, X3
	MOVUPD 64(SI), X9
	MOVUPD 80(SI), X10
	MOVUPD 96(SI), X11
	MOVUPD 112(SI), X12
	MULPD  X8, X9
	MULPD  X8, X10
	MULPD  X8, X11
	MULPD  X8, X12
	ADDPD  X9, X4
	ADDPD  X10, X5
	ADDPD  X11, X6
	ADDPD  X12, X7

	INCQ CX
	CMPQ CX, R12
	JLT  loop16

	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, 64(DX)
	MOVUPD X5, 80(DX)
	MOVUPD X6, 96(DX)
	MOVUPD X7, 112(DX)
	ADDQ   $128, BX
	ADDQ   $128, DX
	SUBQ   $2, R13
	JMP    blk16

blk8:
	TESTQ R13, R13
	JZ    done
	MOVUPD (DX), X0
	MOVUPD 16(DX), X1
	MOVUPD 32(DX), X2
	MOVUPD 48(DX), X3
	XORQ   CX, CX

loop8:
	MOVQ     (R10)(CX*8), AX
	MOVSD    (R11)(CX*8), X8
	UNPCKLPD X8, X8
	LEAQ     (BX)(AX*8), SI

	MOVUPD (SI), X9
	MOVUPD 16(SI), X10
	MOVUPD 32(SI), X11
	MOVUPD 48(SI), X12
	MULPD  X8, X9
	MULPD  X8, X10
	MULPD  X8, X11
	MULPD  X8, X12
	ADDPD  X9, X0
	ADDPD  X10, X1
	ADDPD  X11, X2
	ADDPD  X12, X3

	INCQ CX
	CMPQ CX, R12
	JLT  loop8

	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)

done:
	RET

// func dotTB2x8(a0, a1, b *float64, ldbBytes, kn int, out0, out1 *float64)
//
// Sixteen dot products over kn ascending steps, each from +0:
//   out0[j] = sum_k a0[k] * b[j*ldb+k]   (j = 0..7)
//   out1[j] = sum_k a1[k] * b[j*ldb+k]
// B is read transposed: lane pair (j, j+1) is gathered from two B rows with
// MOVSD + MOVHPD. X0-X3 accumulate row 0, X4-X7 row 1; X8/X9 carry the
// broadcast A coefficients.
TEXT ·dotTB2x8(SB), NOSPLIT, $0-56
	MOVQ a0+0(FP), DI
	MOVQ a1+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ ldbBytes+24(FP), R8
	MOVQ kn+32(FP), CX
	MOVQ out0+40(FP), DX
	MOVQ out1+48(FP), R9
	LEAQ (R8)(R8*2), R10 // 3*ldb
	LEAQ (R8)(R8*4), R11 // 5*ldb
	LEAQ (R10)(R8*4), R12 // 7*ldb

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

tbloop:
	MOVSD    (DI), X8
	MOVSD    (SI), X9
	UNPCKLPD X8, X8
	UNPCKLPD X9, X9
	ADDQ     $8, DI
	ADDQ     $8, SI

	MOVSD  (BX), X10
	MOVHPD (BX)(R8*1), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X0
	ADDPD  X11, X4

	MOVSD  (BX)(R8*2), X12
	MOVHPD (BX)(R10*1), X12
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X1
	ADDPD  X13, X5

	MOVSD  (BX)(R8*4), X10
	MOVHPD (BX)(R11*1), X10
	MOVAPD X10, X11
	MULPD  X8, X10
	MULPD  X9, X11
	ADDPD  X10, X2
	ADDPD  X11, X6

	MOVSD  (BX)(R10*2), X12
	MOVHPD (BX)(R12*1), X12
	MOVAPD X12, X13
	MULPD  X8, X12
	MULPD  X9, X13
	ADDPD  X12, X3
	ADDPD  X13, X7

	ADDQ $8, BX
	DECQ CX
	JNZ  tbloop

	MOVUPD X0, (DX)
	MOVUPD X1, 16(DX)
	MOVUPD X2, 32(DX)
	MOVUPD X3, 48(DX)
	MOVUPD X4, (R9)
	MOVUPD X5, 16(R9)
	MOVUPD X6, 32(R9)
	MOVUPD X7, 48(R9)
	RET
