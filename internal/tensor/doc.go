// Package tensor provides the dense linear-algebra substrate for the
// hand-rolled neural-network stack: float64 vectors and row-major matrices
// with the handful of BLAS-like kernels (axpy, dot, gemm, im2col) that
// mini-batch SGD on MLPs and small CNNs requires, and the elementwise loops
// the layers above spend their time in (ReLU, the QSGD wire, top-k's passes,
// polar normal draws, exp). No cgo.
//
// # Two tiers, one switch
//
// Everything is plain Go over []float64 except ONE tier of AVX2 kernels, not
// a ladder: a loop runs either its assembly twin or its Go loop, and nothing
// else exists (the SSE2 kernels an earlier tier had were replaced, not kept as
// a middle rung). An amd64 whose CPUID says AVX2 (and AVX, POPCNT) and whose
// OS saves YMM state runs the assembly; every other GOARCH, -tags purego and a
// pre-2013 amd64 run the Go loops — one fallback, tested everywhere, instead
// of a third path only old hardware exercises. The choice is useAVX2, one
// unexported variable set once at init by probeAVX2 (CPUID.1:ECX
// OSXSAVE+AVX+POPCNT, XGETBV XCR0 bits 1-2, CPUID.7.0:EBX bit 5, through two
// ~10-line stubs at the bottom of gemm_amd64.s: the module has no
// dependencies, so no golang.org/x/sys). Only tests assign it again; there is
// no flag, environment variable, build tag or config field. Kernels reports
// "avx2" or "go", and cmd/bench names it in every ratio it finds under its
// floor.
//
// Every kernel is the twin of a Go loop in this package that stays as its
// fallback, finishes the len % 4 elements the kernel leaves, and is its
// oracle:
//
//   - dotTile4x8 / dotTile2x8 (GemmTB, gemm_amd64.s): 4 A rows x 8 B rows in
//     eight YMM accumulators. B is read four k at a time from four rows and
//     transposed in registers (VUNPCKL/HPD + VPERM2F128), then broadcast-
//     VMULPD-VADDPD per A row and k in ascending k, the eight B rows as two
//     halves of four (sixteen registers do not hold twelve vectors beside
//     eight accumulators); a one-k gather tail takes k % 4. dotTile2x8 is the
//     remainder entry for two rows, and for one by zero row strides. n % 8
//     columns stay on the Go 2x2 tile and Dot; column tiles are the outer
//     loop of dotTiles, so a tile's B rows are read once per panel; sums land
//     in C through its row stride when beta == 0.
//   - axpyListAVX2 (Gemm, GemmTA): the coefficient-list loop of blocked.go at
//     32, then 16, then 8 columns per pass, accumulators held across the list.
//   - compressAVX2 (coefList.compress): four coefficients -> VMULPD by alpha
//     -> VCMPPD NEQ_UQ against zero (keeps NaN, drops ±0 and products that
//     underflow to zero: the Go loop's integer test) -> VMOVMSKPD -> the
//     16-entry VPERMD table compressPerm -> one compacted store of values and
//     one of int64 B-row offsets; POPCNT advances the count. THE OVERRUN
//     HAZARD: a four-lane store at count n writes up to three entries past
//     the list's end, and off sits before val in coefList, so the kernel
//     takes WHOLE groups only (a group starting at coefficient t stores at
//     n <= t, and t+3 < kcBlock) and compressGo finishes kn % 4. The offset
//     vector is built in registers: a 32-byte load of four fresh 8-byte
//     stores stalls on store forwarding.
//   - reluAVX2 / reluGradAVX2 (ReLU, ReLUGrad): VPCMPGTQ/VPAND/VPANDN/VPOR for
//     "keep positives and NaN of either sign", VPCMPEQQ/VPANDN for "pass where
//     the forward output is not +0" — integer instructions on the bit
//     patterns reluKeep computes with integer arithmetic.
//   - axpyAVX2 / addAVX2 / subAVX2 (Axpy, Add, Sub): the optimizer's plain
//     step, the async aggregate, a dense message's decode-and-add, error
//     feedback's vec + residual, the engines' deltas.
//   - countAVX2 / keepAVX2 / aboveAVX2 / tiesAVX2 (CountDigits, KeepDigit,
//     EmitAbove, FillTies: top-k's dim-wide passes, topk_amd64.s) on the
//     magnitude pattern v AND absMask, whose clear sign bit makes the signed
//     VPCMPGTQ the Go loops' unsigned order. The count computes the 12-bit
//     digits and their occupancy bits (VPSLLVQ, OR-accumulated) in lanes and
//     increments the counters scalar; the other three compact with
//     compressAVX2's idiom (VMOVMSKPD -> compressPerm -> VPERMD -> one
//     four-lane store -> POPCNT), an emitted group's int32 indices being its
//     mask's row of emitPerm plus the group's first index. THE STORE BOUND:
//     an emitted message is exactly k long, its capacity the holder's, so
//     aboveAVX2 and tiesAVX2 store a group only at a cursor n <= k-4 and
//     hand the rest to their Go loops, which store one entry at a time below
//     k; tiesAVX2 skips tie-free groups without storing, so a cursor already
//     within 3 of k — the usual start, one tie short — still scans four
//     coordinates a step to the first tie. keepAVX2 needs no bound: a group
//     starting at value t stores at n <= t, inside keys[:len(vec)].
//   - quantAVX2 / dequantAVX2 / accumAVX2 (quant.go, the QSGD wire) and
//     polarAVX2 (polar.go, which mirrors math.archLog): each file states its
//     own contract.
//   - expAVX2 (ExpInto, below).
//   - lower3AVX2 / raise3AVX2 (Lower, Raise: conv lowering through a
//     zero-bordered copy of the image, conv_amd64.s) for a 3x3 kernel, every
//     conv of the zoo, one output row of patches per call. Lower moves each
//     run of three with one four-wide load and one four-wide store at 24-byte
//     steps: the fourth lane lands on the next run's first element, which
//     that run's store then overwrites. THE OVERLAPPING-STORE HAZARD: a patch
//     row's last run has no next run, and its fourth lane would land past the
//     row (past the matrix, on the last row) and be read past the padded
//     image, so that run moves 2+1. Raise adds each run 2+1, patch rows in
//     order (they overlap in the padded image): a fourth lane would add the
//     next run's first term into the pixel past the run. THE RULE: Lower
//     writes EVERY element of its destination, which so needs no
//     preparation, and of the padded image only the interior — its copy-in is
//     the padded image's only writer, so a border allocated zero stays zero
//     (zeroing it per call cost 13-22% of Lower); Raise, which clears its own
//     padded image, takes a different one. Other kernel sizes take the Go
//     loops, which are the kernels' oracles.
//
// # The kernel contract
//
// A YMM lane holds ONE output element and lanes never mix, so a packed
// instruction performs the scalar loop's operation per element. Every step is
// an exactly-rounded IEEE operation in the scalar order: each term a
// separately rounded multiply then add (VMULPD then VADDPD, never VFMADD*),
// terms in ascending reduction index from +0 (dot) or from C (axpy), the
// canonical reduce order of naive.go. Where two NaNs meet, the first source
// operand's survives, so operand order is part of the contract: in the
// products B is the multiply's first source and the accumulator the add's;
// Axpy and Sub take their Go loops' order (x then the product; a). Every
// kernel ends in VZEROUPPER before RET (the Go compiler emits legacy SSE
// encodings, which stall on dirty upper halves; the CPUID stubs return bare,
// since VZEROUPPER is illegal where they must run), and none keeps heap
// scratch (one 32-float stack tile in dotTiles for beta != 0). So every golden
// holds on both tiers with no value recaptured.
//
// # ExpInto: the one kernel that fuses
//
// ExpInto is math.Exp bit for bit. On amd64 math.Exp IS math.archExp (GOROOT
// src/math/exp_amd64.s, after Shibata's SIMD method): k = round(x*Log2e) by
// CVTSD2SL, the reduction x - k*Ln2U - k*Ln2L, a multiply by 1/16, a degree-8
// Taylor polynomial by Horner, four squarings x*(x+2), +1, and 2^k by
// building its exponent field. expAVX2 mirrors it instruction for
// instruction, packed: VCVTPD2DQ/VCVTDQ2PD for k, the same constants
// (expConst), and VPADDD + VPMOVZXDQ + VPSLLQ $52 + VMULPD for 2^k.
//
// THE FMA TRAP. archExp branches on package math's own useFMA (AVX && FMA):
// the fused path folds each reduction step, each Horner step and the last
// squaring with its +1 into one VFNMADD231SD / VFMADD213SD, and rounds
// differently from the unfused one in about one argument in twenty. So the
// kernel has both paths, one loop each, and takes the one math takes, by
// useFMA = probeFMA(): CPUID.1:ECX FMA under the same OSXSAVE/AVX/XCR0
// checks internal/cpu makes. Here FMA is the oracle's arithmetic, not a
// departure from it. internal/cpu also honours GODEBUG=cpu.avx=off and
// cpu.fma=off; the probe does not, so under those settings ExpInto can differ
// from math.Exp in the last bit.
//
// THE DOMAIN. archExp's arithmetic path, with 2^k normal, covers every x in
// [expLo, expHi] = [-708, 709]; outside it (NaN, ±Inf, overflow, subnormal
// and zero results) archExp takes exits the kernel does not mirror. The kernel
// tests each group of four before any arithmetic (VCMPPD NGE_UQ / NLE_UQ,
// VMOVMSKPD): a group with a lane outside the domain, NaN included, ends the
// call unwritten, expBulk hands that group to math.Exp and resumes the kernel
// after it — the fix-up touches only the flagged groups, and a softmax's
// arguments (a logit less its row's maximum) are in the domain until a model
// has diverged.
//
// # Tests
//
// The parity suites run once per tier in one `go test` (eachTier flips
// useAVX2; the assembly half is skipped with a logged reason where the probe
// said no), plus a remainder grid for the products, the compress twin with
// canaries on both sides of coefList, the mask and vector-update twins at
// every misalignment, the conv lowering against per-element reference loops
// with canaries past the patches and the padded images, the top-k passes with
// sentinels past k and past len(vec), and fuzz targets over raw float64
// words (FuzzQuantizeTwin, FuzzPolarTwin, FuzzExpTwin, FuzzTopKTwin — whose
// digit and threshold are the input's own patterns, so equal digits and ties
// are the rule — and FuzzLowerTwin, over random conv shapes against Im2Col
// into a NaN-filled matrix and Zero + Col2Im; where one of Raise's adds meets
// two NaNs, which payload survives is the compiler's operand order, so any
// NaN passes there). exp_amd64_test.go holds
// each exp path to a Go oracle of its own (math.FMA for the fused steps,
// separately rounded products for the unfused ones) by flipping useFMA, so
// the path this host's math does not take runs too, and checks the probe
// against math.Exp at an argument where the two paths differ. In the
// external package tensor_test, through export_test.go, training steps and a
// loss on both conv nets are bit-equal across tiers, with the 0-alloc gates
// under both. CI's purego step is the only place the Go tier meets the nn,
// cluster, paramserver, opt and compress goldens on an AVX2 runner.
package tensor
