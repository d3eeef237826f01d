//go:build amd64 && !purego

// The AVX2 twins of im2col.go's padded walks for a 3x3 kernel, then of
// conv.go's direct convolution, of the frame moves and of the max-pool loop.
// A patch row is C channels of three runs of three, 72 bytes per channel in
// the patches matrix; in the padded image a channel's runs are wp bytes
// apart and the channels plane bytes apart, and the next patch row's window
// starts step bytes on. Moves, compares and separately rounded products and
// adds only, in the Go code's order, so every bit is its. Each kernel ends in
// VZEROUPPER + RET (see gemm_amd64.s).
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

// The direct convolution: a tile of four filters by eight output positions,
// two groups of four adjacent windows (SI and R11), read straight from the
// padded image. Per patch element k = (c, ky, kx) the two groups' four
// values are one unaligned load each, at c*plane + ky*wp + kx*8 — no patches
// matrix, no transpose — and each filter's weight is one broadcast. A term is
// VMULPD with the pad value as first source, then VADDPD with the
// accumulator first: the dot tile's order (gemm_amd64.s), so the sums are
// GemmTB's, and the bias is added to each sum before the store, as the
// lowered product's bias loop adds it.

// CSTEP4 adds one k into the eight accumulators: PA and PB address the two
// groups' values, o the weight's byte offset in the filter rows at DI.
#define CSTEP4(PA, PB, o) \
	VMOVUPD      PA, Y8; \
	VMOVUPD      PB, Y9; \
	VBROADCASTSD o(DI), Y10; \
	VBROADCASTSD o(DI)(R8*1), Y11; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y10, Y9, Y13; \
	VMULPD       Y11, Y8, Y14; \
	VMULPD       Y11, Y9, Y15; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y4, Y4; \
	VADDPD       Y14, Y1, Y1; \
	VADDPD       Y15, Y5, Y5; \
	VBROADCASTSD o(DI)(R8*2), Y10; \
	VBROADCASTSD o(DI)(R12*1), Y11; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y10, Y9, Y13; \
	VMULPD       Y11, Y8, Y14; \
	VMULPD       Y11, Y9, Y15; \
	VADDPD       Y12, Y2, Y2; \
	VADDPD       Y13, Y6, Y6; \
	VADDPD       Y14, Y3, Y3; \
	VADDPD       Y15, Y7, Y7

// CSTEP1 is CSTEP4 for one filter: Y0 and Y4 accumulate.
#define CSTEP1(PA, PB, o) \
	VMOVUPD      PA, Y8; \
	VMOVUPD      PB, Y9; \
	VBROADCASTSD o(DI), Y10; \
	VMULPD       Y10, Y8, Y12; \
	VMULPD       Y10, Y9, Y13; \
	VADDPD       Y12, Y0, Y0; \
	VADDPD       Y13, Y4, Y4

// CHANNEL runs STEP over one channel's nine k, kernel row ky at (SI)(R9*ky).
#define CHANNEL(STEP) \
	STEP((SI), (R11), 0); \
	STEP(8(SI), 8(R11), 8); \
	STEP(16(SI), 16(R11), 16); \
	STEP((SI)(R9*1), (R11)(R9*1), 24); \
	STEP(8(SI)(R9*1), 8(R11)(R9*1), 32); \
	STEP(16(SI)(R9*1), 16(R11)(R9*1), 40); \
	STEP((SI)(R9*2), (R11)(R9*2), 48); \
	STEP(8(SI)(R9*2), 8(R11)(R9*2), 56); \
	STEP(16(SI)(R9*2), 16(R11)(R9*2), 64)

// func convTile4x8(pad *float64, gb int, w *float64, ldw, chans, wp, plane int, bias, out *float64, ldo, gbo int)
TEXT ·convTile4x8(SB), NOSPLIT, $0-88
	MOVQ   pad+0(FP), SI
	MOVQ   gb+8(FP), R11
	ADDQ   SI, R11
	MOVQ   w+16(FP), DI
	MOVQ   ldw+24(FP), R8
	MOVQ   chans+32(FP), CX
	MOVQ   wp+40(FP), R9
	MOVQ   plane+48(FP), R10
	LEAQ   (R8)(R8*2), R12 // 3*ldw
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

chan4:
	CHANNEL(CSTEP4)
	ADDQ R10, SI
	ADDQ R10, R11
	ADDQ $72, DI
	DECQ CX
	JNZ  chan4

	MOVQ         bias+56(FP), AX
	MOVQ         out+64(FP), DX
	MOVQ         ldo+72(FP), R8
	MOVQ         gbo+80(FP), BX
	ADDQ         DX, BX
	LEAQ         (R8)(R8*2), R12 // 3*ldo
	VBROADCASTSD (AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD 16(AX), Y12
	VBROADCASTSD 24(AX), Y13
	VADDPD       Y10, Y0, Y0
	VADDPD       Y10, Y4, Y4
	VADDPD       Y11, Y1, Y1
	VADDPD       Y11, Y5, Y5
	VADDPD       Y12, Y2, Y2
	VADDPD       Y12, Y6, Y6
	VADDPD       Y13, Y3, Y3
	VADDPD       Y13, Y7, Y7
	VMOVUPD      Y0, (DX)
	VMOVUPD      Y4, (BX)
	VMOVUPD      Y1, (DX)(R8*1)
	VMOVUPD      Y5, (BX)(R8*1)
	VMOVUPD      Y2, (DX)(R8*2)
	VMOVUPD      Y6, (BX)(R8*2)
	VMOVUPD      Y3, (DX)(R12*1)
	VMOVUPD      Y7, (BX)(R12*1)
	VZEROUPPER
	RET

// func convTile1x8(pad *float64, gb int, w *float64, chans, wp, plane int, bias, out *float64, gbo int)
TEXT ·convTile1x8(SB), NOSPLIT, $0-72
	MOVQ   pad+0(FP), SI
	MOVQ   gb+8(FP), R11
	ADDQ   SI, R11
	MOVQ   w+16(FP), DI
	MOVQ   chans+24(FP), CX
	MOVQ   wp+32(FP), R9
	MOVQ   plane+40(FP), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y4, Y4, Y4

chan1:
	CHANNEL(CSTEP1)
	ADDQ R10, SI
	ADDQ R10, R11
	ADDQ $72, DI
	DECQ CX
	JNZ  chan1

	MOVQ         bias+48(FP), AX
	MOVQ         out+56(FP), DX
	MOVQ         gbo+64(FP), BX
	VBROADCASTSD (AX), Y10
	VADDPD       Y10, Y0, Y0
	VADDPD       Y10, Y4, Y4
	VMOVUPD      Y0, (DX)
	VMOVUPD      Y4, (DX)(BX*1)
	VZEROUPPER
	RET

// func moveRowsAVX2(dst, src *float64, chans, rows, quads, dstRow, dstPlane, srcRow, srcPlane int)
//
// frame and unframe's four-wide moves: each row is quads four-element loads
// and stores, rows and planes at their own strides on either side.
TEXT ·moveRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ chans+16(FP), BX
	MOVQ dstRow+40(FP), R8
	MOVQ dstPlane+48(FP), R9
	MOVQ srcRow+56(FP), R10
	MOVQ srcPlane+64(FP), R11

moveplane:
	MOVQ DI, R12
	MOVQ SI, R13
	MOVQ rows+24(FP), DX

moverow:
	XORQ AX, AX
	MOVQ quads+32(FP), CX

movequad:
	VMOVUPD (R13)(AX*1), Y0
	VMOVUPD Y0, (R12)(AX*1)
	ADDQ    $32, AX
	DECQ    CX
	JNZ     movequad
	ADDQ    R8, R12
	ADDQ    R10, R13
	DECQ    DX
	JNZ     moverow
	ADDQ    R9, DI
	ADDQ    R11, SI
	DECQ    BX
	JNZ     moveplane
	VZEROUPPER
	RET

// func poolAVX2(src, dst *float64, argmax *int, width, d, steps, groups, skip int, lanes *[4]int)
//
// Four 2x2 windows per step. The top row's two vectors t0 (at SI) and t1 (d
// elements on) and the bottom row's b0, b1 (width on) split by
// VUNPCKLPD/VUNPCKHPD into the windows' left and right columns, in lane order
// (w0, w[d/2], w1, w[d/2]+1). pickMax's chain runs per lane: the top-left is
// the first best, then top-right, bottom-left, bottom-right each taken only
// where VCMPPD GT_OQ says v > best (false on NaN and on equal zeros), and
// VBLENDVPD picks the value and the int64 offset alike. VPERMPD/VPERMQ $0xD8
// put the lanes back in window order before the stores. Y15 holds the
// step's top-left offsets (ones in Y14, width in Y13, 2*d in Y12, skip in
// Y11), built with VEX moves only: a legacy-SSE MOVQ into X with dirty upper
// halves stalls every step after it.
TEXT ·poolAVX2(SB), NOSPLIT, $0-72
	MOVQ         src+0(FP), SI
	MOVQ         dst+8(FP), DI
	MOVQ         argmax+16(FP), R8
	MOVQ         width+24(FP), AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13
	SHLQ         $3, AX
	MOVQ         AX, R9               // width in bytes: the bottom row
	MOVQ         d+32(FP), AX
	SHLQ         $1, AX
	VMOVQ        AX, X12
	VPBROADCASTQ X12, Y12
	SHLQ         $3, AX
	MOVQ         AX, R12              // 2*d in bytes: one step
	SHRQ         $1, AX
	MOVQ         AX, R10              // d in bytes: t1
	MOVQ         steps+40(FP), R11
	MOVQ         groups+48(FP), BX
	MOVQ         skip+56(FP), AX
	VMOVQ        AX, X11
	VPBROADCASTQ X11, Y11
	SHLQ         $3, AX
	MOVQ         AX, R13              // skip in bytes
	MOVQ         $1, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ         lanes+64(FP), AX
	VMOVDQU      (AX), Y15

poolgroup:
	MOVQ R11, CX

poolstep:
	LEAQ      (SI)(R9*1), AX
	VMOVUPD   (SI), Y0
	VMOVUPD   (SI)(R10*1), Y1
	VMOVUPD   (AX), Y2
	VMOVUPD   (AX)(R10*1), Y3
	VUNPCKLPD Y1, Y0, Y4           // top-left: the first best
	VUNPCKHPD Y1, Y0, Y5           // top-right
	VUNPCKLPD Y3, Y2, Y6           // bottom-left
	VUNPCKHPD Y3, Y2, Y7           // bottom-right
	VCMPPD    $0x1e, Y4, Y5, Y9    // top-right > best
	VBLENDVPD Y9, Y5, Y4, Y4
	VPADDQ    Y14, Y15, Y10
	VBLENDVPD Y9, Y10, Y15, Y8
	VCMPPD    $0x1e, Y4, Y6, Y9    // bottom-left > best
	VBLENDVPD Y9, Y6, Y4, Y4
	VPADDQ    Y13, Y15, Y10
	VBLENDVPD Y9, Y10, Y8, Y8
	VCMPPD    $0x1e, Y4, Y7, Y9    // bottom-right > best
	VBLENDVPD Y9, Y7, Y4, Y4
	VPADDQ    Y14, Y10, Y10
	VBLENDVPD Y9, Y10, Y8, Y8
	VPERMPD   $0xd8, Y4, Y4
	VPERMQ    $0xd8, Y8, Y8
	VMOVUPD   Y4, (DI)
	VMOVDQU   Y8, (R8)
	ADDQ      $32, DI
	ADDQ      $32, R8
	ADDQ      R12, SI
	VPADDQ    Y12, Y15, Y15
	DECQ      CX
	JNZ       poolstep
	ADDQ      R13, SI
	VPADDQ    Y11, Y15, Y15
	DECQ      BX
	JNZ       poolgroup
	VZEROUPPER
	RET
