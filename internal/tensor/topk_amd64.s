//go:build amd64 && !purego

#include "textflag.h"

// The top-k passes of topk.go, four magnitude patterns per YMM register. A
// lane's pattern is its value AND absMask; the sign bit is clear, so the
// signed VPCMPGTQ is the Go loops' unsigned order. The compactions take the
// kept lanes' 4-bit VMOVMSKPD mask, move those lanes to the front with the
// mask's VPERMD pattern (compressPerm), store all four lanes at the cursor
// and advance it by the mask's POPCNT: the axpy panel's list idiom. The emitted
// indices are the mask's row of emitPerm, the kept lanes' numbers, plus the
// group's first index.

// func countAVX2(vec *float64, n int, hist *uint32) uint64
//
// hist[b >> 51]++ for the pattern b of each of n > 0 values, n a multiple of
// 4, and the OR of 1 << (b >> 57) over them. The digit and the occupancy bit
// are computed in lanes; the four increments are scalar, in lane order.
TEXT ·countAVX2(SB), NOSPLIT, $0-32
	MOVQ         vec+0(FP), SI
	MOVQ         n+8(FP), CX
	MOVQ         hist+16(FP), DI
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15 // |v| mask
	VPCMPEQQ     Y14, Y14, Y14
	VPSRLQ       $63, Y14, Y14 // 1 in every lane
	VPXOR        Y13, Y13, Y13 // occupancy, per lane

countloop:
	VPAND        (SI), Y15, Y0
	VPSRLQ       $51, Y0, Y0 // digits
	VPSRLQ       $6, Y0, Y1  // their occupancy bits
	VPSLLVQ      Y1, Y14, Y1
	VPOR         Y1, Y13, Y13
	VMOVQ        X0, AX
	VPEXTRQ      $1, X0, BX
	VEXTRACTI128 $1, Y0, X0
	VMOVQ        X0, DX
	VPEXTRQ      $1, X0, R8
	INCL         (DI)(AX*4)
	INCL         (DI)(BX*4)
	INCL         (DI)(DX*4)
	INCL         (DI)(R8*4)
	ADDQ         $32, SI
	SUBQ         $4, CX
	JNZ          countloop

	VEXTRACTI128 $1, Y13, X0
	VPOR         X0, X13, X0
	VPSHUFD      $0x4E, X0, X1
	VPOR         X1, X0, X0
	VMOVQ        X0, ret+24(FP)
	VZEROUPPER
	RET

// func keepAVX2(keys *uint64, vec *float64, stop, groups int, digit uint64) (count, done int)
//
// Compacts to keys the patterns of the values whose digit b >> 51 is digit,
// from value 0 over at most groups > 0 groups of four, every group stored
// unconditionally, and stops before a group when the cursor is above stop:
// aboveAVX2's bound, so keys need only be as long as the bucket.
TEXT ·keepAVX2(SB), NOSPLIT, $0-56
	MOVQ         keys+0(FP), DI
	MOVQ         vec+8(FP), SI
	MOVQ         stop+16(FP), R9
	MOVQ         groups+24(FP), R8
	VPBROADCASTQ digit+32(FP), Y14
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	LEAQ         ·compressPerm(SB), R12
	XORQ         R13, R13     // the cursor
	MOVQ         SI, R11      // vec, to count the values taken
	SHLQ         $5, R8
	ADDQ         SI, R8       // the end of the last group

keepouter:
	// As in aboveAVX2: from cursor n the next (stop - n) / 4 + 1 groups
	// store at or below stop, so they run unchecked up to the group end CX.
	MOVQ    R9, CX
	SUBQ    R13, CX
	JLT     keepdone
	SHRQ    $2, CX
	SHLQ    $5, CX
	LEAQ    32(SI)(CX*1), CX
	CMPQ    CX, R8
	CMOVQGT R8, CX

keeploop:
	VPAND     (SI), Y15, Y0
	VPSRLQ    $51, Y0, Y1
	VPCMPEQQ  Y14, Y1, Y1
	VMOVMSKPD Y1, DX
	POPCNTQ   DX, BX
	SHLQ      $5, DX
	VMOVDQU   (R12)(DX*1), Y2
	VPERMD    Y0, Y2, Y0
	VMOVDQU   Y0, (DI)(R13*8)
	ADDQ      BX, R13
	ADDQ      $32, SI
	CMPQ      SI, CX
	JNE       keeploop
	CMPQ      SI, R8
	JNE       keepouter

keepdone:
	SUBQ R11, SI
	SHRQ $3, SI
	MOVQ R13, count+40(FP)
	MOVQ SI, done+48(FP)
	VZEROUPPER
	RET

// EMITSETUP loads the constants both emission kernels use: Y15 the |v| mask,
// Y14 the threshold, X13 the group's first index in every int32 lane, X12
// four in every lane, R12 and R11 the two pattern tables; AX is the index of
// the next value, R8 the number of values.
#define EMITSETUP \
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX; \
	VMOVQ        AX, X15; \
	VPBROADCASTQ X15, Y15; \
	LEAQ         ·compressPerm(SB), R12; \
	LEAQ         ·emitPerm(SB), R11; \
	VPXOR        X13, X13, X13; \
	MOVL         $4, AX; \
	VMOVD        AX, X12; \
	VPBROADCASTD X12, X12; \
	XORQ         AX, AX; \
	SHLQ         $2, R8

// EMITSTORE stores the group in Y0 whose kept lanes' mask is in DX: values
// to R10 and int32 indices to DI, both at the cursor R13, which it advances.
// The kept lanes' numbers are emitPerm's row, so their indices are that row
// plus the group's first index (VPADDD rather than a second permute, which
// would share VPERMD's port). compressPerm's rows are 32 bytes, emitPerm's
// 16.
#define EMITSTORE \
	POPCNTQ   DX, BX; \
	SHLQ      $4, DX; \
	VMOVDQU   (R12)(DX*2), Y2; \
	VPERMD    Y0, Y2, Y2; \
	VMOVDQU   Y2, (R10)(R13*8); \
	VPADDD    (R11)(DX*1), X13, X3; \
	VMOVDQU   X3, (DI)(R13*4); \
	ADDQ      BX, R13

// func aboveAVX2(idx *int32, vals *float64, n, stop int, vec *float64, groups int, thresh uint64) (count, done int)
//
// Emits (i, vec[i]) for the values whose pattern is above thresh, from value
// 0 over at most groups > 0 groups of four, every group stored
// unconditionally, and stops before a group when the cursor is above stop.
TEXT ·aboveAVX2(SB), NOSPLIT, $0-72
	MOVQ         idx+0(FP), DI
	MOVQ         vals+8(FP), R10
	MOVQ         n+16(FP), R13
	MOVQ         stop+24(FP), R9
	MOVQ         vec+32(FP), SI
	MOVQ         groups+40(FP), R8
	VPBROADCASTQ thresh+48(FP), Y14
	EMITSETUP

aboveouter:
	// Each group advances the cursor by at most 4, so from cursor n the next
	// (stop - n) / 4 + 1 groups store at or below stop: run them unchecked.
	MOVQ    R9, CX
	SUBQ    R13, CX
	JLT     abovedone
	SHRQ    $2, CX
	LEAQ    4(AX)(CX*4), CX
	CMPQ    CX, R8
	CMOVQGT R8, CX

aboveloop:
	VMOVDQU   (SI)(AX*8), Y0
	VPAND     Y15, Y0, Y1
	VPCMPGTQ  Y14, Y1, Y1
	VMOVMSKPD Y1, DX
	EMITSTORE
	VPADDD    X12, X13, X13
	ADDQ      $4, AX
	CMPQ      AX, CX
	JNE       aboveloop
	CMPQ      AX, R8
	JNE       aboveouter

abovedone:
	MOVQ R13, count+56(FP)
	MOVQ AX, done+64(FP)
	VZEROUPPER
	RET

// func tiesAVX2(idx *int32, vals *float64, n, stop int, vec *float64, groups int, thresh uint64) (count, done int)
//
// aboveAVX2 on pattern == thresh, storing only the groups that hold a tie:
// the cursor usually starts a lane or two short of k = stop+4, so it stops
// before the first tie group it may not store rather than before the first
// group, and after the group that fills the arrays.
TEXT ·tiesAVX2(SB), NOSPLIT, $0-72
	MOVQ         idx+0(FP), DI
	MOVQ         vals+8(FP), R10
	MOVQ         n+16(FP), R13
	MOVQ         stop+24(FP), R9
	MOVQ         vec+32(FP), SI
	MOVQ         groups+40(FP), R8
	VPBROADCASTQ thresh+48(FP), Y14
	EMITSETUP

tiesloop:
	VMOVDQU   (SI)(AX*8), Y0
	VPAND     Y15, Y0, Y1
	VPCMPEQQ  Y14, Y1, Y1
	VMOVMSKPD Y1, DX
	TESTQ     DX, DX
	JZ        tiesnext
	CMPQ      R13, R9
	JGT       tiesdone
	EMITSTORE
	LEAQ      4(R9), DX
	CMPQ      R13, DX
	JNE       tiesnext
	ADDQ      $4, AX    // k entries: this group was the last one needed
	JMP       tiesdone

tiesnext:
	VPADDD X12, X13, X13
	ADDQ   $4, AX
	CMPQ   AX, R8
	JNE    tiesloop

tiesdone:
	MOVQ R13, count+56(FP)
	MOVQ AX, done+64(FP)
	VZEROUPPER
	RET
