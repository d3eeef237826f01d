//go:build amd64 && !purego

// The AVX2 twins of im2col.go's padded walks for a 3x3 kernel. A patch row
// is C channels of three runs of three, 72 bytes per channel in the patches
// matrix; in the padded image a channel's runs are wp bytes apart and the
// channels plane bytes apart, and the next patch row's window starts step
// bytes on. Moves and separately rounded adds only, so every bit is the Go
// loop's. Each kernel ends in VZEROUPPER + RET (see gemm_amd64.s).
//
// Go operand order is the reverse of Intel's: `VADDPD b, a, d` is d = a + b.

#include "textflag.h"

// func lower3AVX2(dst, pad *float64, n, chans, step, wp, plane int)
//
// Each run is one four-wide load and one four-wide store, at 24-byte steps
// in dst: the fourth lane lands on the next run's first element, which that
// run's store overwrites. THE OVERRUN HAZARD: the patch row's last run has
// no next run, and its fourth lane would be written past the row (the next
// patch row's first element, or past the matrix) and read past the image's
// last padded row, so it moves 2+1. Every earlier run's fourth element is in
// the padded image: at most the first element of the next padded row.
TEXT ·lower3AVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ pad+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ chans+24(FP), BX
	MOVQ step+32(FP), R8
	MOVQ wp+40(FP), R9
	MOVQ plane+48(FP), R10

lowerpatch:
	MOVQ SI, R11
	MOVQ BX, R12
	DECQ R12
	JZ   lowerlast

lowerchan:
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(R9*1), Y1
	VMOVUPD (R11)(R9*2), Y2
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 24(DI)
	VMOVUPD Y2, 48(DI)
	ADDQ    R10, R11
	ADDQ    $72, DI
	DECQ    R12
	JNZ     lowerchan

lowerlast:
	VMOVUPD (R11), Y0
	VMOVUPD (R11)(R9*1), Y1
	VMOVUPD (R11)(R9*2), X2
	VMOVSD  16(R11)(R9*2), X3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 24(DI)
	VMOVUPD X2, 48(DI)
	VMOVSD  X3, 64(DI)
	ADDQ    $72, DI
	ADDQ    R8, SI
	DECQ    CX
	JNZ     lowerpatch
	VZEROUPPER
	RET

// func raise3AVX2(pad, src *float64, n, chans, step, wp, plane int)
//
// Each run is added 2+1, not four-wide: a fourth lane would add the next
// run's first term into the pixel past the run. pad is each add's first
// source, as the Go loop's `run[kx] += v` compiles today; where both
// operands are NaN that decides the payload, which Go leaves to the compiler.
TEXT ·raise3AVX2(SB), NOSPLIT, $0-56
	MOVQ pad+0(FP), SI
	MOVQ src+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ chans+24(FP), BX
	MOVQ step+32(FP), R8
	MOVQ wp+40(FP), R9
	MOVQ plane+48(FP), R10

raisepatch:
	MOVQ SI, R11
	MOVQ BX, R12

raisechan:
	LEAQ    (R11)(R9*1), R13
	LEAQ    (R11)(R9*2), R14
	VMOVUPD (R11), X0
	VADDPD  (DI), X0, X0
	VMOVUPD X0, (R11)
	VMOVSD  16(R11), X1
	VADDSD  16(DI), X1, X1
	VMOVSD  X1, 16(R11)
	VMOVUPD (R13), X0
	VADDPD  24(DI), X0, X0
	VMOVUPD X0, (R13)
	VMOVSD  16(R13), X1
	VADDSD  40(DI), X1, X1
	VMOVSD  X1, 16(R13)
	VMOVUPD (R14), X0
	VADDPD  48(DI), X0, X0
	VMOVUPD X0, (R14)
	VMOVSD  16(R14), X1
	VADDSD  64(DI), X1, X1
	VMOVSD  X1, 16(R14)
	ADDQ    R10, R11
	ADDQ    $72, DI
	DECQ    R12
	JNZ     raisechan
	ADDQ    R8, SI
	DECQ    CX
	JNZ     raisepatch
	VZEROUPPER
	RET
