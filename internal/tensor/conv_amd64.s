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

// The conv backward (ConvGrad, convgrad.go) without lowering. The dW kernel
// reads the patches straight from the padded image, as the direct forward
// does; the input gradient is built from D rows, the rows of G^T*W, held in
// a ring of three output rows and gathered into the image rows. Every term
// is a separately rounded product then add, in Gemm's, GemmTA's and Col2Im's
// order (gemm_amd64.s: the non-coefficient operand is the product's first
// source, the running element the add's).

// COMPRESS is axpyPanelAVX2's PKEEP + PSTORE (gemm_amd64.s) without the multiply
// by alpha: the four coefficients in Y3, the lanes that are not ±0 (NaN
// kept) moved to the front through compressPerm (R12) and stored at the
// count R13 with their offsets Y1, which then advance by Y2; the list's
// values are at R11, its offsets at R10. 1*g is g but for a signalling
// NaN's quiet bit, and the product that reads the coefficient quiets it
// anyway, so the terms are Gemm's and GemmTA's. A store writes four entries,
// so a list has room for whole groups of four.
#define COMPRESS \
	VCMPPD    $4, Y15, Y3, Y4; \
	VMOVMSKPD Y4, DX; \
	POPCNTQ   DX, AX; \
	SHLQ      $5, DX; \
	VMOVDQU   (R12)(DX*1), Y5; \
	VPERMD    Y3, Y5, Y6; \
	VPERMD    Y1, Y5, Y7; \
	VMOVDQU   Y6, (R11)(R13*8); \
	VMOVDQU   Y7, (R10)(R13*8); \
	ADDQ      AX, R13; \
	VPADDQ    Y2, Y1, Y1

// STRIDES sets Y14 = (0, AX, 2AX, 3AX), a group's first offsets, and Y2 =
// 4AX in every lane; Y15 = 0 for COMPRESS. It uses CX, DX and X2.
#define STRIDES \
	XORQ         DX, DX; \
	VMOVQ        DX, X14; \
	VPINSRQ      $1, AX, X14, X14; \
	LEAQ         (AX)(AX*2), DX; \
	LEAQ         (AX)(AX*1), CX; \
	VMOVQ        CX, X2; \
	VPINSRQ      $1, DX, X2, X2; \
	VINSERTI128  $1, X2, Y14, Y14; \
	SHLQ         $2, AX; \
	VMOVQ        AX, X2; \
	VPBROADCASTQ X2, Y2; \
	VXORPD       Y15, Y15, Y15

// DWRUN adds one run of the window (three elements and a spare lane at m)
// times the coefficient in Y12 into the accumulator A.
#define DWRUN(m, A) \
	VMOVUPD m, Y13; \
	VMULPD  Y12, Y13, Y13; \
	VADDPD  Y13, A, A

// DWCHAN adds one channel's three runs (the window at DX, rows R9 bytes
// apart); DWLAST the same for a group's last channel, whose last run is read
// one element early — lanes (spare, kx 0, 1, 2) — so that no lane reads past
// the image's last padded row.
#define DWCHAN(A0, A1, A2) \
	DWRUN((DX), A0); \
	DWRUN((DX)(R9*1), A1); \
	DWRUN((DX)(R9*2), A2)

#define DWLAST(A0, A1, A2) \
	DWRUN((DX), A0); \
	DWRUN((DX)(R9*1), A1); \
	DWRUN(-8(DX)(R9*2), A2)

// DWTERM loads list entry CX: its window's address into DX, its coefficient
// into Y12.
#define DWTERM \
	MOVQ         (R10)(CX*8), AX; \
	MOVQ         (R8)(AX*8), DX; \
	ADDQ         SI, DX; \
	VBROADCASTSD (R11)(CX*8), Y12

// func convDWAVX2(grad *float64, groups int, pad *float64, table, off *int, val *float64, dw *float64, filters, chans, wp, plane int)
//
// Per filter, its row of G (groups groups of four positions, the rows one
// after another) is listed by COMPRESS, positions as offsets; an empty list
// leaves the filter's dW row untouched. A group of four channels is twelve
// runs of three in dw, 24 bytes apart, each held in one register across the
// whole list with its fourth lane spare. THE OVERLAPPING-STORE HAZARD (cf.
// lower3AVX2): run r's four-wide store writes its spare lane over run r+1's
// first element, which run r+1's store then writes; so the runs are stored
// in ascending order, and a group's last run — whose next element is the
// next group's or the next filter's first weight, or past dw — is held as
// (spare, kx 0, 1, 2), loaded from one element early and stored 1+2. chans
// % 4 channels take the same path one channel (three runs) at a time.
TEXT ·convDWAVX2(SB), NOSPLIT, $0-88
	MOVQ grad+0(FP), R14
	MOVQ table+24(FP), R8
	MOVQ off+32(FP), R10
	MOVQ val+40(FP), R11
	MOVQ dw+48(FP), DI
	MOVQ wp+72(FP), R9
	MOVQ $1, AX
	STRIDES

dwfilter:
	LEAQ    ·compressPerm(SB), R12
	VMOVDQU Y14, Y1
	XORQ    R13, R13
	MOVQ    groups+8(FP), BX

dwlist:
	VMOVUPD (R14), Y3
	COMPRESS
	ADDQ    $32, R14
	DECQ    BX
	JNZ     dwlist

	MOVQ  chans+64(FP), BX
	TESTQ R13, R13
	JZ    dwskip
	MOVQ  R13, R12               // the list's length
	MOVQ  pad+16(FP), SI
	MOVQ  plane+80(FP), R13

dwgroup4:
	CMPQ    BX, $4
	JLT     dwgroup1
	VMOVUPD (DI), Y0
	VMOVUPD 24(DI), Y1
	VMOVUPD 48(DI), Y2
	VMOVUPD 72(DI), Y3
	VMOVUPD 96(DI), Y4
	VMOVUPD 120(DI), Y5
	VMOVUPD 144(DI), Y6
	VMOVUPD 168(DI), Y7
	VMOVUPD 192(DI), Y8
	VMOVUPD 216(DI), Y9
	VMOVUPD 240(DI), Y10
	VMOVUPD 256(DI), Y11
	XORQ    CX, CX

dwterm4:
	DWTERM
	DWCHAN(Y0, Y1, Y2)
	ADDQ R13, DX
	DWCHAN(Y3, Y4, Y5)
	ADDQ R13, DX
	DWCHAN(Y6, Y7, Y8)
	ADDQ R13, DX
	DWLAST(Y9, Y10, Y11)
	INCQ CX
	CMPQ CX, R12
	JLT  dwterm4

	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 24(DI)
	VMOVUPD      Y2, 48(DI)
	VMOVUPD      Y3, 72(DI)
	VMOVUPD      Y4, 96(DI)
	VMOVUPD      Y5, 120(DI)
	VMOVUPD      Y6, 144(DI)
	VMOVUPD      Y7, 168(DI)
	VMOVUPD      Y8, 192(DI)
	VMOVUPD      Y9, 216(DI)
	VMOVUPD      Y10, 240(DI)
	VMOVHPD      X11, 264(DI)
	VEXTRACTF128 $1, Y11, X13
	VMOVUPD      X13, 272(DI)
	ADDQ         $288, DI
	LEAQ         (SI)(R13*4), SI
	SUBQ         $4, BX
	JMP          dwgroup4

dwgroup1:
	TESTQ   BX, BX
	JZ      dwnext
	VMOVUPD (DI), Y0
	VMOVUPD 24(DI), Y1
	VMOVUPD 40(DI), Y2
	XORQ    CX, CX

dwterm1:
	DWTERM
	DWLAST(Y0, Y1, Y2)
	INCQ CX
	CMPQ CX, R12
	JLT  dwterm1

	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 24(DI)
	VMOVHPD      X2, 48(DI)
	VEXTRACTF128 $1, Y2, X13
	VMOVUPD      X13, 56(DI)
	ADDQ         $72, DI
	ADDQ         R13, SI
	DECQ         BX
	JMP          dwgroup1

dwskip:
	LEAQ (BX)(BX*8), AX
	LEAQ (DI)(AX*8), DI          // past the filter's chans*72 bytes

dwnext:
	MOVQ $4, AX                  // Y2 served as an accumulator: four positions again
	VMOVQ        AX, X2
	VPBROADCASTQ X2, Y2
	DECQ filters+56(FP)
	JNZ  dwfilter
	VZEROUPPER
	RET

// func convListsAVX2(grad *float64, ldg, groups, tail, n, ldw int, off *int, val *float64, cnt *int, ldl int)
//
// Per position, groups groups of four filters are gathered from the column
// and listed by COMPRESS; the tail of one to three is gathered into the low
// lanes of zeros, which the compare drops. A store of four lanes at count n
// <= 4i for group i stays inside the list's ldl bytes, which hold the filter
// count rounded up to four.
TEXT ·convListsAVX2(SB), NOSPLIT, $0-80
	MOVQ grad+0(FP), R14
	MOVQ ldg+8(FP), R8
	LEAQ (R8)(R8*2), R9
	MOVQ off+48(FP), R10
	MOVQ val+56(FP), R11
	MOVQ cnt+64(FP), BX
	LEAQ ·compressPerm(SB), R12
	MOVQ ldw+40(FP), AX
	STRIDES
	MOVQ n+32(FP), DI

listpos:
	MOVQ    R14, SI
	VMOVDQU Y14, Y1
	XORQ    R13, R13
	MOVQ    groups+16(FP), CX
	TESTQ   CX, CX
	JZ      listtail

listgroup:
	VMOVSD      (SI), X3
	VMOVHPD     (SI)(R8*1), X3, X3
	VMOVSD      (SI)(R8*2), X4
	VMOVHPD     (SI)(R9*1), X4, X4
	VINSERTF128 $1, X4, Y3, Y3
	COMPRESS
	LEAQ        (SI)(R8*4), SI
	DECQ        CX
	JNZ         listgroup

listtail:
	MOVQ   tail+24(FP), CX
	TESTQ  CX, CX
	JZ     listdone
	VMOVSD (SI), X3
	CMPQ   CX, $1
	JEQ    listlast
	VMOVHPD (SI)(R8*1), X3, X3
	CMPQ    CX, $2
	JEQ     listlast
	VMOVSD      (SI)(R8*2), X4
	VINSERTF128 $1, X4, Y3, Y3

listlast:
	COMPRESS

listdone:
	MOVQ R13, (BX)
	ADDQ $8, BX
	ADDQ $8, R14
	ADDQ ldl+72(FP), R10
	ADDQ ldl+72(FP), R11
	DECQ DI
	JNZ  listpos
	VZEROUPPER
	RET

// DTERM adds the filter row's four lanes at o(R13) times the coefficient in
// Y9 into A, the filter value first.
#define DTERM(o, A) \
	VMOVUPD o(R13), Y10; \
	VMULPD  Y9, Y10, Y10; \
	VADDPD  Y10, A, A

// func convDRowsAVX2(wt *float64, off *int, val *float64, cnt *int, ldl, n, quadEnd, qstep, kstep int, dst *float64)
//
// Per position and quad, nine accumulators (k = 0..8) start at +0, take the
// list in order, and are stored kstep bytes apart; quadEnd is quads*288.
TEXT ·convDRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ wt+0(FP), SI
	MOVQ off+8(FP), R10
	MOVQ val+16(FP), R11
	MOVQ cnt+24(FP), R12
	MOVQ n+40(FP), BX
	MOVQ qstep+56(FP), R8
	MOVQ kstep+64(FP), R9
	MOVQ dst+72(FP), DI

dpos:
	MOVQ (R12), R14
	XORQ DX, DX     // q*288: the quad's place in a wt row
	MOVQ DI, AX     // the quad's place in the ring

dquad:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	XORQ   CX, CX
	TESTQ  R14, R14
	JZ     dstore

dterm:
	MOVQ         (R10)(CX*8), R13
	ADDQ         SI, R13
	ADDQ         DX, R13
	VBROADCASTSD (R11)(CX*8), Y9
	DTERM(0, Y0)
	DTERM(32, Y1)
	DTERM(64, Y2)
	DTERM(96, Y3)
	DTERM(128, Y4)
	DTERM(160, Y5)
	DTERM(192, Y6)
	DTERM(224, Y7)
	DTERM(256, Y8)
	INCQ CX
	CMPQ CX, R14
	JLT  dterm

dstore:
	MOVQ    AX, R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, (R13)(R9*1)
	VMOVUPD Y2, (R13)(R9*2)
	LEAQ    (R13)(R9*2), R13
	ADDQ    R9, R13
	VMOVUPD Y3, (R13)
	VMOVUPD Y4, (R13)(R9*1)
	VMOVUPD Y5, (R13)(R9*2)
	LEAQ    (R13)(R9*2), R13
	ADDQ    R9, R13
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, (R13)(R9*1)
	VMOVUPD Y8, (R13)(R9*2)
	ADDQ    $288, DX
	ADDQ    R8, AX
	CMPQ    DX, quadEnd+48(FP)
	JLT     dquad

	ADDQ ldl+32(FP), R10
	ADDQ ldl+32(FP), R11
	ADDQ $8, R12
	ADDQ $32, DI
	DECQ BX
	JNZ  dpos
	VZEROUPPER
	RET

// GROW adds one output row's three kx (2, 1, 0: T*2, T*1, 0 bytes on from R)
// into the four pixels' accumulators, 32 bytes apart.
#define GROW(R) \
	VADDPD (R)(DX*2), Y0, Y0; \
	VADDPD 32(R)(DX*2), Y1, Y1; \
	VADDPD 64(R)(DX*2), Y2, Y2; \
	VADDPD 96(R)(DX*2), Y3, Y3; \
	VADDPD (R)(DX*1), Y0, Y0; \
	VADDPD 32(R)(DX*1), Y1, Y1; \
	VADDPD 64(R)(DX*1), Y2, Y2; \
	VADDPD 96(R)(DX*1), Y3, Y3; \
	VADDPD (R), Y0, Y0; \
	VADDPD 32(R), Y1, Y1; \
	VADDPD 64(R), Y2, Y2; \
	VADDPD 96(R), Y3, Y3

// func convGatherAVX2(r2, r1, r0 *float64, quads, qstep, t, width, plane int, dst *float64)
//
// Four pixels (lanes: the quad's four channels) accumulate from +0 with the
// running sum each add's first source; VUNPCKL/HPD and VPERM2F128 transpose
// them to four channels (lanes: the pixels), stored plane bytes apart.
TEXT ·convGatherAVX2(SB), NOSPLIT, $0-72
	MOVQ qstep+32(FP), R12
	MOVQ t+40(FP), DX
	MOVQ width+48(FP), R13
	MOVQ plane+56(FP), R8
	LEAQ (R8)(R8*2), R9
	XORQ R10, R10           // the group's first pixel

gpix:
	MOVQ R10, SI
	SHLQ $5, SI             // its slot offset; a quad adds qstep
	MOVQ dst+64(FP), DI
	LEAQ (DI)(R10*8), DI
	MOVQ quads+24(FP), R11

gquad:
	MOVQ   r2+0(FP), AX
	MOVQ   r1+8(FP), BX
	MOVQ   r0+16(FP), CX
	ADDQ   SI, AX
	ADDQ   SI, BX
	ADDQ   SI, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	GROW(AX)
	GROW(BX)
	GROW(CX)
	VUNPCKLPD  Y1, Y0, Y4
	VUNPCKHPD  Y1, Y0, Y5
	VUNPCKLPD  Y3, Y2, Y6
	VUNPCKHPD  Y3, Y2, Y7
	VPERM2F128 $0x20, Y6, Y4, Y8
	VPERM2F128 $0x20, Y7, Y5, Y9
	VPERM2F128 $0x31, Y6, Y4, Y10
	VPERM2F128 $0x31, Y7, Y5, Y11
	VMOVUPD    Y8, (DI)
	VMOVUPD    Y9, (DI)(R8*1)
	VMOVUPD    Y10, (DI)(R8*2)
	VMOVUPD    Y11, (DI)(R9*1)
	ADDQ       R12, SI
	LEAQ       (DI)(R8*4), DI
	DECQ       R11
	JNZ        gquad

	ADDQ $4, R10
	CMPQ R10, R13
	JGE  gdone
	LEAQ 4(R10), R14
	CMPQ R14, R13
	JLE  gpix
	LEAQ -4(R13), R10       // the last group ends at the row's end
	JMP  gpix

gdone:
	VZEROUPPER
	RET
