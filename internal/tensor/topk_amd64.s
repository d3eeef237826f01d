//go:build amd64 && !purego

#include "textflag.h"

// A pattern's first digit is b >> DIGITSHIFT (topk.go's digitShift), its
// occupancy bit b >> 57, the digit >> OCCSHIFT.
#define DIGITSHIFT $50
#define OCCSHIFT $7

// The top-k passes of topk.go, four magnitude patterns per YMM register. A
// lane's pattern is its value AND absMask; the sign bit is clear, so the
// signed VPCMPGTQ is the Go loops' unsigned order.

// COUNTGROUP counts the four values in Y0: hist[b >> 50]++ into the counters
// at R9 for the pattern b of each (Y15 is the |v| mask), and the OR of
// 1 << (b >> 57) into Y13 (Y14 holds 1 in every lane). The digits and the
// occupancy bits are computed in lanes; the four increments are scalar, in
// lane order.
#define COUNTGROUP \
	VPAND        Y15, Y0, Y0; \
	VPSRLQ       DIGITSHIFT, Y0, Y0; \
	VPSRLQ       OCCSHIFT, Y0, Y1; \
	VPSLLVQ      Y1, Y14, Y1; \
	VPOR         Y1, Y13, Y13; \
	VMOVQ        X0, AX; \
	VPEXTRQ      $1, X0, BX; \
	VEXTRACTI128 $1, Y0, X0; \
	VMOVQ        X0, DX; \
	VPEXTRQ      $1, X0, R8; \
	INCL         (R9)(AX*4); \
	INCL         (R9)(BX*4); \
	INCL         (R9)(DX*4); \
	INCL         (R9)(R8*4)

// COUNTSETUP loads COUNTGROUP's constants and clears its occupancy.
#define COUNTSETUP \
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX; \
	VMOVQ        AX, X15; \
	VPBROADCASTQ X15, Y15; \
	VPCMPEQQ     Y14, Y14, Y14; \
	VPSRLQ       $63, Y14, Y14; \
	VPXOR        Y13, Y13, Y13

// COUNTDONE returns the OR of Y13's four lanes in AX.
#define COUNTDONE \
	VEXTRACTI128 $1, Y13, X0; \
	VPOR         X0, X13, X0; \
	VPSHUFD      $0x4E, X0, X1; \
	VPOR         X1, X0, X0; \
	VMOVQ        X0, AX

// func countAVX2(vec *float64, n int, hist *uint32) uint64
//
// COUNTGROUP over n > 0 values, n a multiple of 4.
TEXT ·countAVX2(SB), NOSPLIT, $0-32
	MOVQ vec+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ hist+16(FP), R9
	COUNTSETUP

countloop:
	VMOVDQU (SI), Y0
	COUNTGROUP
	ADDQ    $32, SI
	SUBQ    $4, CX
	JNZ     countloop

	COUNTDONE
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func addCountAVX2(sum, vec *float64, n int, hist *uint32) uint64
//
// sum = vec + sum over n > 0 values, n a multiple of 4, as addAVX2 adds (vec
// the VADDPD's first source, so two NaNs keep vec's payload), then
// COUNTGROUP on the sums.
TEXT ·addCountAVX2(SB), NOSPLIT, $0-40
	MOVQ sum+0(FP), DI
	MOVQ vec+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ hist+24(FP), R9
	COUNTSETUP

addcountloop:
	VMOVUPD (SI), Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	COUNTGROUP
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     addcountloop

	COUNTDONE
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func keepFromAVX2(at *int32, vec *float64, stop, groups int, digit uint64) (count, done int)
//
// Compacts to at the indices of the values whose pattern is at least
// lo = digit << DIGITSHIFT, the digit's smallest pattern, from value 0 over
// at most groups > 0 groups of four: the pattern is above lo-1 (for digit 0
// that is -1, below every pattern). Every group stores its four lanes'
// indices unconditionally, the kept ones first: the mask's row of emitPerm,
// the kept lanes' numbers, plus the group's first index. It stops before a
// group when the cursor is above stop, so at need only be as long as the
// list.
TEXT ·keepFromAVX2(SB), NOSPLIT, $0-56
	MOVQ         at+0(FP), DI
	MOVQ         vec+8(FP), SI
	MOVQ         stop+16(FP), R9
	MOVQ         groups+24(FP), R8
	SHLQ         $2, R8        // the number of values
	MOVQ         digit+32(FP), AX
	SHLQ         DIGITSHIFT, AX
	DECQ         AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14      // lo-1
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15      // |v| mask
	LEAQ         ·emitPerm(SB), R11
	VPXOR        X13, X13, X13 // the group's first index, in every int32 lane
	MOVL         $4, AX
	VMOVD        AX, X12
	VPBROADCASTD X12, X12
	XORQ         AX, AX        // the next value
	XORQ         R13, R13      // the cursor

keepouter:
	// Each group advances the cursor by at most 4, so from cursor n the next
	// (stop - n) / 4 + 1 groups store at or below stop: run them unchecked
	// up to CX.
	MOVQ    R9, CX
	SUBQ    R13, CX
	JLT     keepdone
	SHRQ    $2, CX
	LEAQ    4(AX)(CX*4), CX
	CMPQ    CX, R8
	CMOVQGT R8, CX

keeploop:
	VPAND     (SI)(AX*8), Y15, Y1
	VPCMPGTQ  Y14, Y1, Y1
	VMOVMSKPD Y1, DX
	POPCNTQ   DX, BX
	SHLQ      $4, DX
	VPADDD    (R11)(DX*1), X13, X3
	VMOVDQU   X3, (DI)(R13*4)
	ADDQ      BX, R13
	VPADDD    X12, X13, X13
	ADDQ      $4, AX
	CMPQ      AX, CX
	JNE       keeploop
	CMPQ      AX, R8
	JNE       keepouter

keepdone:
	MOVQ R13, count+40(FP)
	MOVQ AX, done+48(FP)
	VZEROUPPER
	RET
