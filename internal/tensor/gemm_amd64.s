//go:build amd64 && !purego

// The AVX2 kernel tier: the four hot loops of a conv training step and the
// two vector updates (Axpy, Sub), each the twin of a Go loop in this package
// that stays as its fallback and its oracle. The contract is naive.go's. Each
// YMM lane holds ONE C element, so VMULPD then VADDPD perform exactly the
// scalar kernel's separately-rounded multiply and add per element, per term,
// in ascending reduction index — vectorizing across independent output
// elements preserves every bit, which a fused multiply-add would not, so no
// kernel here may use one. B is the multiply's first source and the
// accumulator the add's, as in the SSE2 kernels this tier replaced (the
// vector updates take their Go loops' order instead; each says which). The
// ReLU masks are integer instructions on the bit patterns the Go loops
// compute with integer arithmetic.
//
// Every kernel ends in VZEROUPPER + RET: the Go compiler emits legacy SSE
// encodings, which stall on dirty upper YMM halves. The CPUID/XGETBV stubs at
// the bottom touch no vector state and must run where VZEROUPPER is an
// illegal instruction, so they return bare.
//
// Go operand order is the reverse of Intel's: `VMULPD s2, s1, d` is
// d = s1 * s2 with s1 the first source.

#include "textflag.h"

// func axpyListAVX2(off *int, val *float64, n int, b, c *float64, nblk int)
//
// For nblk consecutive 8-column blocks of the C row at c:
//   c[j] += val[t] * b[off[t]+j]   (t = 0..n-1 ascending, j over the block)
// The list holds only non-zero coefficients, so the naive kernel's
// zero-coefficient skip never fires and the loop needs no branches. Blocks
// are taken four at a time (32 columns, eight accumulators held across the
// whole list), then two, then one. Y8 carries the broadcast coefficient,
// Y9-Y12 stream B.
#define AXPY4(o, A0, A1, A2, A3) \
	VMOVUPD o+0(SI), Y9; \
	VMOVUPD o+32(SI), Y10; \
	VMOVUPD o+64(SI), Y11; \
	VMOVUPD o+96(SI), Y12; \
	VMULPD  Y8, Y9, Y9; \
	VMULPD  Y8, Y10, Y10; \
	VMULPD  Y8, Y11, Y11; \
	VMULPD  Y8, Y12, Y12; \
	VADDPD  Y9, A0, A0; \
	VADDPD  Y10, A1, A1; \
	VADDPD  Y11, A2, A2; \
	VADDPD  Y12, A3, A3

#define AXPYNEXT \
	MOVQ         (R10)(CX*8), AX; \
	VBROADCASTSD (R11)(CX*8), Y8; \
	LEAQ         (BX)(AX*8), SI

TEXT ·axpyListAVX2(SB), NOSPLIT, $0-48
	MOVQ off+0(FP), R10
	MOVQ val+8(FP), R11
	MOVQ n+16(FP), R12
	MOVQ b+24(FP), BX
	MOVQ c+32(FP), DX
	MOVQ nblk+40(FP), R13

blk32:
	CMPQ    R13, $4
	JLT     blk16
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7
	XORQ    CX, CX

loop32:
	AXPYNEXT
	AXPY4(0, Y0, Y1, Y2, Y3)
	AXPY4(128, Y4, Y5, Y6, Y7)
	INCQ CX
	CMPQ CX, R12
	JLT  loop32

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	ADDQ    $256, BX
	ADDQ    $256, DX
	SUBQ    $4, R13
	JMP     blk32

blk16:
	CMPQ    R13, $2
	JLT     blk8
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	XORQ    CX, CX

loop16:
	AXPYNEXT
	AXPY4(0, Y0, Y1, Y2, Y3)
	INCQ CX
	CMPQ CX, R12
	JLT  loop16

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	ADDQ    $128, BX
	ADDQ    $128, DX
	SUBQ    $2, R13

blk8:
	TESTQ   R13, R13
	JZ      axpydone
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	XORQ    CX, CX

loop8:
	AXPYNEXT
	VMOVUPD (SI), Y9
	VMOVUPD 32(SI), Y10
	VMULPD  Y8, Y9, Y9
	VMULPD  Y8, Y10, Y10
	VADDPD  Y9, Y0, Y0
	VADDPD  Y10, Y1, Y1
	INCQ    CX
	CMPQ    CX, R12
	JLT     loop8

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)

axpydone:
	VZEROUPPER
	RET

// The dot-form tiles. A tile is R rows of A against 8 rows of B: the 8R sums
//   c[r*ldc+j] = sum_k a[r*lda+k] * b[j*ldb+k]   (j = 0..7)
// each started from +0 and accumulated in ascending k over kn > 0 steps;
// lda, ldb, ldc are BYTE strides. Lane j of an accumulator is column j, so B
// has to be read transposed: four k at a time from four B rows, a 4x4
// transpose in registers (TRANSPOSE4), then one broadcast-multiply-add per A
// row and k. The eight B rows are taken as two halves of four (BX walks rows
// 0-3, R11 rows 4-7) because sixteen registers hold eight accumulators, four
// transposed vectors and the temporaries, not twelve. GATHER1 is the one-k
// tail for kn % 4.

// TRANSPOSE4 leaves B[0..3][k+i] of the four rows at P in Y(8+i).
#define TRANSPOSE4(P) \
	VMOVUPD    (P), Y8; \
	VMOVUPD    (P)(R8*2), Y10; \
	VUNPCKLPD  (P)(R8*1), Y8, Y12; \
	VUNPCKHPD  (P)(R8*1), Y8, Y13; \
	VUNPCKLPD  (P)(R10*1), Y10, Y14; \
	VUNPCKHPD  (P)(R10*1), Y10, Y15; \
	VPERM2F128 $0x20, Y14, Y12, Y8; \
	VPERM2F128 $0x20, Y15, Y13, Y9; \
	VPERM2F128 $0x31, Y14, Y12, Y10; \
	VPERM2F128 $0x31, Y15, Y13, Y11

// GATHER1 leaves B[0..3][k] of the four rows at P in Y8.
#define GATHER1(P) \
	VMOVSD      (P), X8; \
	VMOVHPD     (P)(R8*1), X8, X8; \
	VMOVSD      (P)(R8*2), X9; \
	VMOVHPD     (P)(R10*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8

// STEP4 adds one k (A column at byte offset o, transposed B in T) into four
// rows' accumulators; STEP2 into two.
#define STEP2(o, T, A0, A1) \
	VBROADCASTSD o(DI), Y12; \
	VBROADCASTSD o(DI)(R9*1), Y13; \
	VMULPD       Y12, T, Y12; \
	VMULPD       Y13, T, Y13; \
	VADDPD       Y12, A0, A0; \
	VADDPD       Y13, A1, A1

#define STEP4(o, T, A0, A1, A2, A3) \
	VBROADCASTSD o(DI), Y12; \
	VBROADCASTSD o(DI)(R9*1), Y13; \
	VBROADCASTSD o(DI)(R9*2), Y14; \
	VBROADCASTSD o(DI)(R12*1), Y15; \
	VMULPD       Y12, T, Y12; \
	VMULPD       Y13, T, Y13; \
	VMULPD       Y14, T, Y14; \
	VMULPD       Y15, T, Y15; \
	VADDPD       Y12, A0, A0; \
	VADDPD       Y13, A1, A1; \
	VADDPD       Y14, A2, A2; \
	VADDPD       Y15, A3, A3

// func dotTile4x8(a *float64, lda int, b *float64, ldb, kn int, c *float64, ldc int)
//
// Y0-Y3 accumulate rows 0-3 over columns 0-3, Y4-Y7 over columns 4-7.
TEXT ·dotTile4x8(SB), NOSPLIT, $0-56
	MOVQ   a+0(FP), DI
	MOVQ   lda+8(FP), R9
	MOVQ   b+16(FP), BX
	MOVQ   ldb+24(FP), R8
	MOVQ   kn+32(FP), CX
	MOVQ   c+40(FP), DX
	MOVQ   ldc+48(FP), R13
	LEAQ   (R8)(R8*2), R10 // 3*ldb
	LEAQ   (BX)(R8*4), R11 // B rows 4-7
	LEAQ   (R9)(R9*2), R12 // 3*lda
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	SUBQ   $4, CX
	JLT    tail4

block4:
	TRANSPOSE4(BX)
	STEP4(0, Y8, Y0, Y1, Y2, Y3)
	STEP4(8, Y9, Y0, Y1, Y2, Y3)
	STEP4(16, Y10, Y0, Y1, Y2, Y3)
	STEP4(24, Y11, Y0, Y1, Y2, Y3)
	TRANSPOSE4(R11)
	STEP4(0, Y8, Y4, Y5, Y6, Y7)
	STEP4(8, Y9, Y4, Y5, Y6, Y7)
	STEP4(16, Y10, Y4, Y5, Y6, Y7)
	STEP4(24, Y11, Y4, Y5, Y6, Y7)
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R11
	SUBQ $4, CX
	JGE  block4

tail4:
	ADDQ $4, CX
	JZ   store4

one4:
	GATHER1(BX)
	STEP4(0, Y8, Y0, Y1, Y2, Y3)
	GATHER1(R11)
	STEP4(0, Y8, Y4, Y5, Y6, Y7)
	ADDQ $8, DI
	ADDQ $8, BX
	ADDQ $8, R11
	DECQ CX
	JNZ  one4

store4:
	LEAQ    (R13)(R13*2), R12 // 3*ldc
	VMOVUPD Y0, (DX)
	VMOVUPD Y4, 32(DX)
	VMOVUPD Y1, (DX)(R13*1)
	VMOVUPD Y5, 32(DX)(R13*1)
	VMOVUPD Y2, (DX)(R13*2)
	VMOVUPD Y6, 32(DX)(R13*2)
	VMOVUPD Y3, (DX)(R12*1)
	VMOVUPD Y7, 32(DX)(R12*1)
	VZEROUPPER
	RET

// func dotTile2x8(a *float64, lda int, b *float64, ldb, kn int, c *float64, ldc int)
//
// The remainder entry for two A rows — or one, passed with lda = ldc = 0 so
// that both rows alias it. Y0, Y1 accumulate rows 0, 1 over columns 0-3;
// Y4, Y5 over columns 4-7.
TEXT ·dotTile2x8(SB), NOSPLIT, $0-56
	MOVQ   a+0(FP), DI
	MOVQ   lda+8(FP), R9
	MOVQ   b+16(FP), BX
	MOVQ   ldb+24(FP), R8
	MOVQ   kn+32(FP), CX
	MOVQ   c+40(FP), DX
	MOVQ   ldc+48(FP), R13
	LEAQ   (R8)(R8*2), R10 // 3*ldb
	LEAQ   (BX)(R8*4), R11 // B rows 4-7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	SUBQ   $4, CX
	JLT    tail2

block2:
	TRANSPOSE4(BX)
	STEP2(0, Y8, Y0, Y1)
	STEP2(8, Y9, Y0, Y1)
	STEP2(16, Y10, Y0, Y1)
	STEP2(24, Y11, Y0, Y1)
	TRANSPOSE4(R11)
	STEP2(0, Y8, Y4, Y5)
	STEP2(8, Y9, Y4, Y5)
	STEP2(16, Y10, Y4, Y5)
	STEP2(24, Y11, Y4, Y5)
	ADDQ $32, DI
	ADDQ $32, BX
	ADDQ $32, R11
	SUBQ $4, CX
	JGE  block2

tail2:
	ADDQ $4, CX
	JZ   store2

one2:
	GATHER1(BX)
	STEP2(0, Y8, Y0, Y1)
	GATHER1(R11)
	STEP2(0, Y8, Y4, Y5)
	ADDQ $8, DI
	ADDQ $8, BX
	ADDQ $8, R11
	DECQ CX
	JNZ  one2

store2:
	VMOVUPD Y0, (DX)
	VMOVUPD Y4, 32(DX)
	VMOVUPD Y1, (DX)(R13*1)
	VMOVUPD Y5, 32(DX)(R13*1)
	VZEROUPPER
	RET

// The edge tiles: R rows of A against the last n % 8 rows of B, four columns
// at a time. A lane is still one C element and the per-element sequence is
// the 8-wide tile's (from +0, ascending k, STEP4/STEP2's multiply then add,
// the same operands in the same order); only the addressing differs. Lanes
// 1-3 read the B rows at byte offsets o1, o2, o3 from lane 0's (R8, R10,
// R11), which the caller clamps to the last column that exists, so a lane
// past n re-reads a row of B instead of one past its end; the mask (Y7, a
// sign bit per lane) keeps VMASKMOVPD from storing it.

// TRANSPOSEE and GATHER1E are TRANSPOSE4 and GATHER1 over the lanes at P,
// P+o1, P+o2, P+o3.
#define TRANSPOSEE(P) \
	VMOVUPD    (P), Y8; \
	VMOVUPD    (P)(R10*1), Y10; \
	VUNPCKLPD  (P)(R8*1), Y8, Y12; \
	VUNPCKHPD  (P)(R8*1), Y8, Y13; \
	VUNPCKLPD  (P)(R11*1), Y10, Y14; \
	VUNPCKHPD  (P)(R11*1), Y10, Y15; \
	VPERM2F128 $0x20, Y14, Y12, Y8; \
	VPERM2F128 $0x20, Y15, Y13, Y9; \
	VPERM2F128 $0x31, Y14, Y12, Y10; \
	VPERM2F128 $0x31, Y15, Y13, Y11

#define GATHER1E(P) \
	VMOVSD      (P), X8; \
	VMOVHPD     (P)(R8*1), X8, X8; \
	VMOVSD      (P)(R10*1), X9; \
	VMOVHPD     (P)(R11*1), X9, X9; \
	VINSERTF128 $1, X9, Y8, Y8

// func dotEdge4x4(a *float64, lda int, b *float64, o1, o2, o3, kn int, c *float64, ldc int, mask *[4]int64)
//
// Y0-Y3 accumulate rows 0-3.
TEXT ·dotEdge4x4(SB), NOSPLIT, $0-80
	MOVQ    a+0(FP), DI
	MOVQ    lda+8(FP), R9
	MOVQ    b+16(FP), BX
	MOVQ    o1+24(FP), R8
	MOVQ    o2+32(FP), R10
	MOVQ    o3+40(FP), R11
	MOVQ    kn+48(FP), CX
	MOVQ    c+56(FP), DX
	MOVQ    ldc+64(FP), R13
	MOVQ    mask+72(FP), AX
	VMOVDQU (AX), Y7
	LEAQ    (R9)(R9*2), R12 // 3*lda
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	VXORPD  Y2, Y2, Y2
	VXORPD  Y3, Y3, Y3
	SUBQ    $4, CX
	JLT     tailE4

blockE4:
	TRANSPOSEE(BX)
	STEP4(0, Y8, Y0, Y1, Y2, Y3)
	STEP4(8, Y9, Y0, Y1, Y2, Y3)
	STEP4(16, Y10, Y0, Y1, Y2, Y3)
	STEP4(24, Y11, Y0, Y1, Y2, Y3)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JGE  blockE4

tailE4:
	ADDQ $4, CX
	JZ   storeE4

oneE4:
	GATHER1E(BX)
	STEP4(0, Y8, Y0, Y1, Y2, Y3)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JNZ  oneE4

storeE4:
	LEAQ       (R13)(R13*2), R12 // 3*ldc
	VMASKMOVPD Y0, Y7, (DX)
	VMASKMOVPD Y1, Y7, (DX)(R13*1)
	VMASKMOVPD Y2, Y7, (DX)(R13*2)
	VMASKMOVPD Y3, Y7, (DX)(R12*1)
	VZEROUPPER
	RET

// func dotEdge2x4(a *float64, lda int, b *float64, o1, o2, o3, kn int, c *float64, ldc int, mask *[4]int64)
//
// Two A rows, or one passed with lda = ldc = 0 (dotTile2x8's aliasing). Y0,
// Y1 accumulate rows 0, 1.
TEXT ·dotEdge2x4(SB), NOSPLIT, $0-80
	MOVQ    a+0(FP), DI
	MOVQ    lda+8(FP), R9
	MOVQ    b+16(FP), BX
	MOVQ    o1+24(FP), R8
	MOVQ    o2+32(FP), R10
	MOVQ    o3+40(FP), R11
	MOVQ    kn+48(FP), CX
	MOVQ    c+56(FP), DX
	MOVQ    ldc+64(FP), R13
	MOVQ    mask+72(FP), AX
	VMOVDQU (AX), Y7
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	SUBQ    $4, CX
	JLT     tailE2

blockE2:
	TRANSPOSEE(BX)
	STEP2(0, Y8, Y0, Y1)
	STEP2(8, Y9, Y0, Y1)
	STEP2(16, Y10, Y0, Y1)
	STEP2(24, Y11, Y0, Y1)
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX
	JGE  blockE2

tailE2:
	ADDQ $4, CX
	JZ   storeE2

oneE2:
	GATHER1E(BX)
	STEP2(0, Y8, Y0, Y1)
	ADDQ $8, DI
	ADDQ $8, BX
	DECQ CX
	JNZ  oneE2

storeE2:
	VMASKMOVPD Y0, Y7, (DX)
	VMASKMOVPD Y1, Y7, (DX)(R13*1)
	VZEROUPPER
	RET

// func compressAVX2(alpha float64, a *float64, stride, groups, boff, ldb int, off *int, val *float64) int
//
// coefList.compress over groups > 0 groups of four coefficients a[0],
// a[stride], ... (stride in BYTES; 8 reads them with one load, anything else
// gathers): multiply by alpha, keep a lane where the product is not ±0
// (NEQ_UQ: NaN compares true and is kept, exactly the Go loop's test on the
// bit pattern), move the kept lanes to the front with the VPERMD pattern
// compressPerm holds for that 4-bit mask, and store all four lanes of values
// and of B-row offsets at the running count, which POPCNT advances. A store
// therefore writes up to three entries past the list's end — inside the
// arrays, because a group that starts at coefficient t stores at n <= t and
// t+3 < kcBlock; the caller takes kn % 4 through the Go loop.
#define COMPRESS4 \
	VMULPD    Y3, Y0, Y3; \
	VCMPPD    $4, Y15, Y3, Y4; \
	VMOVMSKPD Y4, DX; \
	POPCNTQ   DX, DI; \
	SHLQ      $5, DX; \
	VMOVDQU   (R12)(DX*1), Y5; \
	VPERMD    Y3, Y5, Y6; \
	VPERMD    Y1, Y5, Y7; \
	VMOVDQU   Y6, (R11)(R13*8); \
	VMOVDQU   Y7, (R10)(R13*8); \
	ADDQ      DI, R13; \
	VPADDQ    Y2, Y1, Y1

TEXT ·compressAVX2(SB), NOSPLIT, $0-72
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ         a+8(FP), SI
	MOVQ         stride+16(FP), R8
	MOVQ         groups+24(FP), CX
	MOVQ         boff+32(FP), AX
	MOVQ         ldb+40(FP), BX
	MOVQ         off+48(FP), R10
	MOVQ         val+56(FP), R11
	LEAQ         ·compressPerm(SB), R12
	XORQ         R13, R13 // the count
	VXORPD       Y15, Y15, Y15

	// Y1 = the four B-row offsets of a group, Y2 = 4*ldb in every lane;
	// built in registers, because a 32-byte load of four 8-byte stores
	// waits for them to retire.
	LEAQ         (AX)(BX*1), DX
	VMOVQ        AX, X1
	VPINSRQ      $1, DX, X1, X1
	LEAQ         (DX)(BX*1), AX
	LEAQ         (AX)(BX*1), DX
	VMOVQ        AX, X2
	VPINSRQ      $1, DX, X2, X2
	VINSERTI128  $1, X2, Y1, Y1
	SHLQ         $2, BX
	VMOVQ        BX, X2
	VPBROADCASTQ X2, Y2

	CMPQ R8, $8
	JNE  strided

contiguous:
	VMOVUPD (SI), Y3
	COMPRESS4
	ADDQ $32, SI
	DECQ CX
	JNZ  contiguous
	JMP  compressdone

strided:
	LEAQ (R8)(R8*2), R9

gather:
	VMOVSD      (SI), X3
	VMOVHPD     (SI)(R8*1), X3, X3
	VMOVSD      (SI)(R8*2), X4
	VMOVHPD     (SI)(R9*1), X4, X4
	VINSERTF128 $1, X4, Y3, Y3
	COMPRESS4
	LEAQ (SI)(R8*4), SI
	DECQ CX
	JNZ  gather

compressdone:
	MOVQ R13, ret+64(FP)
	VZEROUPPER
	RET

// func reluAVX2(dst, src *float64, n int)
//
// dst[i] = src[i] where its bit pattern b is kept — sign clear (0 > b is
// false as signed integers) or |b| above +Inf's pattern (NaN of either
// sign) — and +0 elsewhere, for n > 0 elements, n a multiple of 4.
TEXT ·reluAVX2(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VPXOR        Y15, Y15, Y15
	MOVQ         $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14 // |b| mask
	MOVQ         $0x7FF0000000000000, AX
	VMOVQ        AX, X13
	VPBROADCASTQ X13, Y13 // +Inf

reluloop:
	VMOVDQU  (SI), Y0
	VPCMPGTQ Y0, Y15, Y1 // negative
	VPAND    Y14, Y0, Y2
	VPCMPGTQ Y13, Y2, Y2 // NaN
	VPANDN   Y0, Y1, Y1
	VPAND    Y0, Y2, Y2
	VPOR     Y2, Y1, Y1
	VMOVDQU  Y1, (DI)
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JNZ      reluloop
	VZEROUPPER
	RET

// func reluGradAVX2(dst, grad, out *float64, n int)
//
// dst[i] = grad[i] where out[i]'s bit pattern is not +0's and +0 elsewhere,
// for n > 0 elements, n a multiple of 4.
TEXT ·reluGradAVX2(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  grad+8(FP), SI
	MOVQ  out+16(FP), BX
	MOVQ  n+24(FP), CX
	VPXOR Y15, Y15, Y15

gradloop:
	VPCMPEQQ (BX), Y15, Y0
	VPANDN   (SI), Y0, Y0
	VMOVDQU  Y0, (DI)
	ADDQ     $32, BX
	ADDQ     $32, SI
	ADDQ     $32, DI
	SUBQ     $4, CX
	JNZ      gradloop
	VZEROUPPER
	RET

// func axpyAVX2(alpha float64, x, y *float64, n int)
//
// y[i] += alpha * x[i] for n > 0 elements, n a multiple of 4, with axpyGo's
// operand order: x the multiply's first source and the product the add's.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

axpyloop:
	VMOVUPD (SI), Y0
	VMULPD  Y15, Y0, Y0
	VADDPD  (DI), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     axpyloop
	VZEROUPPER
	RET

// func subAVX2(dst, a, b *float64, n int)
//
// dst[i] = a[i] - b[i] for n > 0 elements, n a multiple of 4.
TEXT ·subAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX

subloop:
	VMOVUPD (SI), Y0
	VSUBPD  (BX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     subloop
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float64, n int)
//
// dst[i] = a[i] + b[i] for n > 0 elements, n a multiple of 4, with addGo's
// operand order: a the add's first source, so where both are NaN a's payload
// survives.
TEXT ·addAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX

addloop:
	VMOVUPD (SI), Y0
	VADDPD  (BX), Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     addloop
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() uint32
//
// The low half of XCR0: which register state the OS saves on a switch.
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
