// Package tensor provides the dense linear-algebra substrate for the
// hand-rolled neural-network stack: float64 vectors and row-major matrices
// with the handful of BLAS-like kernels (axpy, dot, gemm, im2col, a direct
// 3x3 convolution and its backward, a ReLU folded into either) that
// mini-batch SGD on MLPs and small CNNs requires, and
// the elementwise loops the layers above spend their time in (ReLU, max-pool,
// the QSGD wire, top-k's passes, CHOCO's gossip mix, uniform and polar
// normal draws, the softmax). No cgo.
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
// fallback, finishes the elements the kernel leaves (len % 4 unless the entry
// below says otherwise), and is its oracle:
//
//   - dotTile4x8 / dotTile2x8 (GemmTB, gemm_amd64.s): 4 A rows x 8 B rows in
//     eight YMM accumulators. B is read four k at a time from four rows and
//     transposed in registers (VUNPCKL/HPD + VPERM2F128), then broadcast-
//     VMULPD-VADDPD per A row and k in ascending k, the eight B rows as two
//     halves of four (sixteen registers do not hold twelve vectors beside
//     eight accumulators); a one-k gather tail takes k % 4. dotTile2x8 is the
//     remainder entry for two rows, and for one by zero row strides. Column
//     tiles are the outer loop of dotTiles, so a tile's B rows are read once
//     per panel; sums land in C through its row stride when beta == 0.
//   - dotEdge4x4 / dotEdge2x4 (GemmTB's last n % 8 columns, four at a time:
//     a 10-class head's two): one half of the 8-wide tile, each lane's B row
//     at its own offset. THE RULE: the dot tile's per-element sequence —
//     from +0, ascending k, VMULPD with B first then VADDPD with the
//     accumulator first — so an edge column holds the bits the 8-wide tile
//     gives it, NaN payloads included. THE OVERRUN HAZARD: a lane past the
//     last column would read a row past B's end and store past C's last
//     column (into the next row, or past C on the last). dotTiles clamps the
//     lane offsets to the last column's row, so that lane re-reads a row of
//     B, and VMASKMOVPD stores only the lanes its mask (edgeMask[w]) sets.
//     The Go tier keeps the 2x2 tile and Dot for these columns.
//   - axpyPanelAVX2 (Gemm, GemmTA: gemmPanel, one call per panel and
//     k-block): per C row, the list, then the update, with no Go between
//     them. The list: four coefficients gathered at their stride -> VMULPD
//     by alpha (alpha first) -> VCMPPD NEQ_UQ against zero (keeps NaN, drops
//     ±0 and products that underflow to zero: compressGo's integer test) ->
//     VMOVMSKPD -> the 16-entry VPERMD table compressPerm -> one compacted
//     store of values and one of B-row byte offsets; POPCNT advances the
//     count. The update: the coefficient-list loop of blocked.go at 32, 16,
//     8 and 4 columns per pass, accumulators held across the list, then the
//     last n % 4 columns under a VMASKMOVPD mask. THE RULE is naive.go's: a
//     coefficient is dropped exactly when alpha*a is zero, terms come in
//     ascending k, B is the multiply's first source and the accumulator the
//     add's, no FMA. THE OVERRUN HAZARDS: the list lives in the kernel's
//     1 KiB frame (kcBlock values, then kcBlock offsets; no zeroing, no heap),
//     and a four-lane store at count n writes up to three entries past the
//     list's end — inside the frame's arrays, because a group starting at
//     coefficient t stores at n <= t and t+3 < kcBlock. The kn % 4 tail is
//     gathered into low lanes of zeros and its mask cut to those lanes (an
//     infinite alpha makes a zero lane NaN, which NEQ_UQ would keep), and
//     the column tail's masked lanes neither read B past its last row nor
//     store past C's row. The lanes' first offsets are stored once per call,
//     not per row: a 32-byte load of four fresh 8-byte stores stalls on store
//     forwarding. The Go tier keeps gemmPanelGo (compressGo + axpyListGo).
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
//     axpyPanelAVX2's list idiom (VMOVMSKPD -> compressPerm -> VPERMD -> one
//     four-lane store -> POPCNT), an emitted group's int32 indices being its
//     mask's row of emitPerm plus the group's first index. THE STORE BOUND:
//     an emitted message is exactly k long, its capacity the holder's, so
//     aboveAVX2 and tiesAVX2 store a group only at a cursor n <= k-4 and
//     hand the rest to their Go loops, which store one entry at a time below
//     k; tiesAVX2 skips tie-free groups without storing, so a cursor already
//     within 3 of k — the usual start, one tie short — still scans four
//     coordinates a step to the first tie. keepAVX2 needs no bound: a group
//     starting at value t stores at n <= t, inside keys[:len(vec)].
//   - chocoMixAVX2 (ChocoMix, mix_amd64.s): one node's CHOCO gossip mix in
//     one pass over the coordinates, sixteen at a time in four registers
//     (the Go loop takes len % 16; wire_mix's 16 400 leave none), the
//     sources the inner loop, each row addressed as hat + order[k]*dim
//     (no pointer list, no scratch). A uniform row is the ordered sum, the
//     running sum each add's first source, then ONE division (VDIVPD by the
//     count, never a multiply by its reciprocal); a weighted row a product
//     then an add per source; then post and prj from the mix in registers,
//     which never reaches memory. The Go loop keeps its passes, the mix
//     accumulating in post: an element-major fused Go loop measured slower.
//   - quantAVX2 / dequantAVX2 / accumAVX2 (quant.go, the QSGD wire) and
//     polarAVX2 (polar.go, which mirrors math.archLog): each file states its
//     own contract.
//   - uniformsAVX2 (Uniforms: rng.FillFloat64, QSGD's rounding draws,
//     uniform_amd64.s). xoshiro256**'s state chain stays scalar, four steps
//     unrolled in general registers, each step's s1 stored raw into dst; a
//     finish four groups behind turns four words at a time into Float64's
//     value — the output mix in 64-bit integer lanes, the 53-bit integer to
//     a double through a 2^84/2^52 split, the multiply by 2^-53 — every step
//     exact (uniform.go). THE RULE is the fill's: it IS that many Float64
//     calls, the state left behind included. THE OVERRUN HAZARD: the raw
//     words are staged in dst itself, so the kernel takes whole groups of
//     four and the Go loop finishes len % 4 from the state it hands back;
//     nothing is written past dst. The finish trails the chain by 128 bytes
//     because a 32-byte load of four fresh 8-byte stores stalls on store
//     forwarding.
//   - softmaxAVX2 (SoftmaxRows, below).
//   - moveRowsAVX2 (ConvShape.frame / unframe, the copy-in and copy-out of
//     Lower, Raise and Convolve): an image row a multiple of four wide moves
//     as four-wide loads and stores, the rows and planes of either side at
//     their own strides; other widths keep one copy per row (an 8-wide row's
//     copy call was 6% of a conv forward). THE RULE: it writes the interior
//     only, so frame keeps Lower's zero border.
//   - convTile4x8 / convTile1x8 (Convolve, conv_amd64.s): the direct
//     convolution for a 3x3 kernel at stride 1 and an output width that is a
//     multiple of four (ConvShape.Direct). A tile is four filters by eight
//     output positions, two groups of four adjacent windows that each lie in
//     one output row — one row when OutWidth >= 8, two when it is 4 — whose
//     values for patch element k = (c, ky, kx) are ONE unaligned load from
//     the padded image at c*plane + ky*wp + kx: no patches matrix and no
//     transpose, only a broadcast per filter weight. THE RULE: it is the
//     lowered product term for term — from +0, per k in ascending order a
//     VMULPD with the pad value as first source (the dot tile's order) and
//     a VADDPD with the accumulator first, then bias[f] added to the sum
//     before the store, as Lower + GemmTB + the bias loop compute it. F % 4
//     filters run the one-filter entry; a last lone group of four (P % 8 ==
//     4) is computed twice into the same four elements, so no store passes
//     the output. With relu (a ReLU the layer folded in) each sum then takes
//     reluAVX2's six instructions before its store (the RELU macro), so the
//     stored value is what ReLU would leave. Every shape Direct declines,
//     and the Go tier, runs that lowered product (convolveLowered) and ReLU
//     after it, which is also the kernel's oracle.
//   - convRowSumsAVX2 / convDWAVX2 / convListsAVX2 / convDRowsAVX2 /
//     convGatherAVX2 (ConvGrad, conv_amd64.s): the conv backward without
//     lowering, on the shapes Direct accepts (the input gradient also needs
//     C % 4 == 0 and W >= 4: directDX). G is the output gradient masked by
//     the layer's output where a ReLU is folded in: each kernel that reads
//     grad ANDs every coefficient with VPCMPEQQ-against-+0 of the same
//     element of out before it uses it (reluGradAVX2's two instructions), and
//     without a fold it is handed grad as out, which masks nothing (a value
//     is +0 exactly where it is +0). dB: convRowSumsAVX2 adds four filters'
//     rows at a time, four positions of each loaded, masked and transposed
//     (VUNPCKL/HPD + VPERM2F128) so each lane adds its row in ascending
//     position, the sum first — addRowSumsGo's chains; F % 4 rows run
//     maskedRowSumsGo. dW: convDWAVX2 lists each filter's non-zero G coefficients
//     as positions (axpyPanelAVX2's list idiom without the multiply by alpha,
//     whose 1*g only quiets a signalling NaN the product quiets anyway), a
//     table maps a position to its window in the padded image, and the
//     filter's dW row is held in registers across the list, a group of four
//     channels as twelve runs of three with a spare lane. dX: convListsAVX2
//     lists, per position, the filters whose coefficient is not zero
//     (strided gathers, the same idiom, a filter tail gathered into lanes of
//     zeros); convDRowsAVX2 computes an output row's D rows (G^T*W's rows)
//     from W in [quad][k][4] order, lanes on four channels, into a ring of
//     three output rows plus a zero row whose border slots stay zero;
//     convGatherAVX2 sums each image row's pixels from the ring four pixels
//     by four channels at a time and transposes them into four channel rows
//     of dIn. THE RULE: a
//     dW term is the pad value times the coefficient (pad first) added to
//     the running element (Gemm's axpyPanelAVX2 order, zeros skipped by the
//     lists); a D element starts at +0 and adds the filter value times the
//     coefficient (filter first) over ascending filters (GemmTA's); a pixel
//     starts at +0 and adds its D elements over ky = 2, 1, 0 and kx = 2, 1,
//     0 — ascending position, Col2Im's order — with the running sum first,
//     and a position off the output adds a zero slot's +0, which moves no
//     bit because a sum from +0 is never -0. THE OVERRUN HAZARDS: convDWAVX2
//     stores its runs four wide in ascending order, each spare lane landing
//     on the next run's first weight before that run's store rewrites it; a
//     group's last run would land on the next group's or filter's first
//     weight (or past dW, into dB), so it is held as (spare, kx 0, 1, 2),
//     loaded from one element early and stored 1+2 — which also keeps the
//     window's last read inside the padded image, where a spare lane of the
//     last window would read one past PadLen. Both list builders store four
//     entries at a time, so a list has room for whole groups: P positions
//     (a multiple of four where Direct holds), the filter count rounded up
//     to four. A last group of four pixels that would pass the image row is
//     taken ending at the row's end, its overlap written twice with the same
//     values. The Go tier and every shape these decline run ReLUGrad into
//     one sample's masked G (ConvGrad.masked, only where a pass lowers) and
//     addRowSumsGo + Lower + Gemm + GemmTA + Raise, which is also their
//     oracle: a masked coefficient is skipped exactly where that G holds an
//     exact zero and added wherever it is added, so the fold moves no bit.
//   - poolAVX2 (MaxPool): four 2x2 windows per step, from two four-wide loads
//     per image row, VUNPCKLPD/VUNPCKHPD splitting the left and right columns;
//     pickMax's chain per lane, VCMPPD GT_OQ for `v > best` (false on NaN and
//     on equal zeros) and VBLENDVPD picking the value and the int64 argmax
//     alike, VPERMPD/VPERMQ $0xD8 restoring the window order. Widths a
//     multiple of 8 take one band (row pair) per group; width 4 (VGGNano's
//     second pool) two bands per step at an even band count; others take
//     poolImageGo, the oracle. THE RULE: VEX encodings only in the setup
//     (VMOVQ, VPBROADCASTQ) — one legacy-SSE MOVQ into an X register with
//     the upper halves dirty made the kernel 7x slower than its Go loop.
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
// scratch (one 32-float stack tile in dotTiles for beta != 0, the axpy
// panel's list in its own frame). So every golden holds on both tiers with no
// value recaptured.
//
// # SoftmaxRows: the one kernel that fuses
//
// SoftmaxRows is the loss's per-row loop (softmaxGo) bit for bit, math.Exp
// and math.Log included. softmaxAVX2 gives each lane a row of a group of
// four: a column is gathered from the four rows, the maximum is `if v > mx`
// as VCMPPD GT_OQ + VBLENDVPD (a NaN at column 0 sticks, a later one is
// skipped, the first of ±0 is kept), the sum adds exp(v - mx) from +0 in
// column order, logZ = mx + log(sum) by polar_amd64.s's archLog mirror, and
// each gradient exp(v - logZ) * scale is stored back to its row. A group of
// four rows costs about what one row does — the exp chains' latency, not
// their lanes, sets the time — so each row's serial work (the max's
// compares, the sum, the log) is shared four ways. A remainder of 1-3 rows
// runs as one group whose spare lanes re-read the last row and store
// nothing.
//
// THE EXP. On amd64 math.Exp IS math.archExp (GOROOT src/math/exp_amd64.s,
// after Shibata's SIMD method): k = round(x*Log2e) by CVTSD2SL, the
// reduction x - k*Ln2U - k*Ln2L, a multiply by 1/16, a degree-8 Taylor
// polynomial by Horner, four squarings x*(x+2), +1, and 2^k by building its
// exponent field. The kernel mirrors it instruction for instruction, packed:
// VCVTPD2DQ/VCVTDQ2PD for k, the same constants (expConst), and VPADDD +
// VPMOVZXDQ + VPSLLQ $52 + VMULPD for 2^k.
//
// THE FMA TRAP. archExp branches on package math's own useFMA: the fused
// path folds each reduction step, each Horner step and the last squaring
// with its +1 into one VFNMADD231SD / VFMADD213SD, and rounds differently
// from the unfused one in about one argument in twenty. So the kernel has
// both paths and takes the one math takes, by useFMA, which asks math.Exp
// itself at -Ln2/2, where the fused path gives the correctly rounded Sqrt2/2
// and the unfused one the float64 below: it follows the CPU, GODEBUG's
// cpu.fma and cpu.avx and the toolchain, whatever math follows. Here FMA is
// the oracle's arithmetic, not a departure from it.
//
// THE DOMAIN. archExp's arithmetic path, with 2^k normal, covers every x in
// [expLo, expHi] = [-708, 709]; outside it (NaN, ±Inf, overflow, subnormal
// and zero results) archExp takes exits the kernel does not mirror. A
// softmax argument is never above 0 (v <= mx <= logZ), so pass 2 tests each
// argument against expLo (VCMPPD NGE_UQ, which NaN also fails), and pass 3's
// arguments are bounded by the least logit less logZ, rounding being
// monotone. A group failing either test ends the call before anything of it
// is stored; softmaxBulk hands that group to softmaxGo whole and resumes the
// kernel after it — a softmax's arguments are in the domain until a model
// has diverged or one logit trails its row's maximum by 708.
//
// THE OVERRUN HAZARD: the gradient is stored a lane at a time to its row's
// offset, so a remainder group's spare lanes, which alias the last row,
// must not store (their stores are skipped); logZ's four-lane store goes
// through VMASKMOVPD there.
//
// # Tests
//
// The parity suites run once per tier in one `go test` (eachTier flips
// useAVX2; the assembly half is skipped with a logged reason where the probe
// said no), plus a remainder grid for the products, the axpy panel against
// its Go loops with the other rows' coefficients NaN and sentinels past C,
// the mask and vector-update twins at
// every misalignment, the conv lowering against per-element reference loops
// with canaries past the patches and the padded images, the top-k passes with
// sentinels past k and past len(vec), the dot form's edge columns against
// the 8-wide tile bit for bit with sentinels past C's last column and row,
// and fuzz targets over raw float64 words and generator states
// (FuzzUniformsTwin, FuzzGemmTBEdgeTwin, FuzzQuantizeTwin, FuzzPolarTwin,
// FuzzExpTwin, FuzzSoftmaxTwin — 1-9 rows of 1-17 logits with two raw words
// planted, canaries past logZ and the gradient — FuzzAxpyPanelTwin — a
// random Gemm or GemmTA panel against its Go loops, the other rows'
// coefficients NaN and sentinels past C — FuzzTopKTwin — whose
// digit and threshold are the input's own patterns, so equal digits and ties
// are the rule — FuzzMixTwin, whose planted NaNs meet in every add of the
// mix so that the surviving payload checks the operand order, and
// FuzzLowerTwin, over random conv shapes against Im2Col
// into a NaN-filled matrix and Zero + Col2Im; where one of Raise's adds meets
// two NaNs, which payload survives is the compiler's operand order, so any
// NaN passes there — FuzzConvolveTwin, over random conv shapes and filter
// counts, with and without the folded ReLU, against Lower + GemmTBNaive +
// the bias loop (and reluGo), likewise, except that
// on the direct kernel the payload must be the one its fixed operand order
// gives, with sentinels past the output and the padded image —
// FuzzConvGradTwin, over random conv shapes and two samples per pass, with
// and without a folded ReLU's outputs, against reluGradGo + the row sums +
// Lower + GemmNaive + GemmTANaive + Raise, likewise, with dW and dB planted
// and sentinels past them, past dIn and past every scratch slice —
// and FuzzMaxPoolTwin, values and argmax against poolImageGo with sentinels past
// both). softmax_amd64_test.go holds
// each exp path to a Go oracle of its own (math.FMA for the fused steps,
// separately rounded products for the unfused ones) by flipping useFMA, so
// the unfused path runs on an FMA host too, checks useFMA against math.Exp at
// a random argument where the two paths differ, and re-runs those tests in
// child processes under GODEBUG=cpu.fma=off and cpu.avx=off. In the
// external package tensor_test, through export_test.go, training steps and a
// loss on both conv nets are bit-equal across tiers, with the 0-alloc gates
// under both, and on each tier a Conv2D or Residual with its ReLU folded in
// is bit-equal to the same layer and a separate ReLU, NaNs of two payloads,
// -0 and ±Inf in activations and gradients. CI's purego step is the only
// place the Go tier meets the nn, cluster, paramserver, opt and compress
// goldens on an AVX2 runner, and the figures' all-quick golden.
package tensor
