// Package tensor provides the dense linear-algebra substrate for the
// hand-rolled neural-network stack: float64 vectors and row-major matrices
// with the handful of BLAS-like kernels (axpy, dot, gemm, im2col) that
// mini-batch SGD on MLPs and small CNNs requires, and the elementwise loops
// the layers above spend their time in (ReLU, the QSGD wire, polar normal
// draws, exp). No cgo.
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
//   - axpyAVX2 / subAVX2 (Axpy, Sub): the optimizer's plain step, the async
//     aggregate, a dense message's decode-and-add, the engines' deltas.
//   - quantAVX2 / dequantAVX2 / accumAVX2 (quant.go, the QSGD wire) and
//     polarAVX2 (polar.go, which mirrors math.archLog): each file states its
//     own contract.
//   - expAVX2 (ExpInto, below).
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
// every misalignment, and fuzz targets over raw float64 words
// (FuzzQuantizeTwin, FuzzPolarTwin, FuzzExpTwin). exp_amd64_test.go holds
// each exp path to a Go oracle of its own (math.FMA for the fused steps,
// separately rounded products for the unfused ones) by flipping useFMA, so
// the path this host's math does not take runs too, and checks the probe
// against math.Exp at an argument where the two paths differ. In the
// external package tensor_test, through export_test.go, training steps and a
// loss on both conv nets are bit-equal across tiers, with the 0-alloc gates
// under both. CI's purego step is the only place the Go tier meets the nn,
// cluster, paramserver, opt and compress goldens on an AVX2 runner.
package tensor
