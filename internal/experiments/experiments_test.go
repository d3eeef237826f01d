package experiments

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/delaymodel"
	"repro/internal/metrics"
)

func TestFig4Shape(t *testing.T) {
	rows := Fig4()
	if len(rows) != 300 {
		t.Fatalf("Fig4 rows %d, want 300", len(rows))
	}
	// Paper claim: at alpha=0.9 PASGD approaches ~2x speedup.
	var last Fig4Row
	for _, r := range rows {
		if r.Alpha == 0.9 && r.Tau == 100 {
			last = r
		}
		if r.Tau == 1 && math.Abs(r.Speedup-1) > 1e-12 {
			t.Fatalf("speedup at tau=1 must be 1: %+v", r)
		}
	}
	if last.Speedup < 1.8 {
		t.Fatalf("alpha=0.9 tau=100 speedup %v, want ~1.88", last.Speedup)
	}
	var sb strings.Builder
	PrintFig4(&sb, rows)
	if !strings.Contains(sb.String(), "Fig 4") {
		t.Fatal("PrintFig4 empty")
	}
}

func TestFig5Shape(t *testing.T) {
	res := Fig5Bytes(20000, 1, 0, 0)
	// Paper: dashed mean lines show ~2x gap.
	ratio := res.SyncMean / res.PAvgMean
	if ratio < 1.8 || ratio > 2.6 {
		t.Fatalf("Fig5 mean ratio %v, want ~2", ratio)
	}
	if res.SyncHist.Total() != 20000 || res.PAvgHist.Total() != 20000 {
		t.Fatal("histogram totals wrong")
	}
	var sb strings.Builder
	PrintFig5(&sb, res)
	if !strings.Contains(sb.String(), "x less") {
		t.Fatal("PrintFig5 missing ratio")
	}
}

func TestFig6Shape(t *testing.T) {
	curves := Fig6(100)
	if len(curves) != 2 {
		t.Fatal("want 2 curves")
	}
	sync, pavg := curves[0], curves[1]
	if sync.Tau != 1 || pavg.Tau != 10 {
		t.Fatal("curve taus wrong")
	}
	// Early: tau=10 lower; late: tau=1 lower (paper Fig 6 shape).
	if pavg.Values[2] >= sync.Values[2] {
		t.Fatalf("tau=10 should win early: %v vs %v", pavg.Values[2], sync.Values[2])
	}
	n := len(sync.Values)
	if pavg.Values[n-1] <= sync.Values[n-1] {
		t.Fatalf("tau=1 should win late: %v vs %v", sync.Values[n-1], pavg.Values[n-1])
	}
	var sb strings.Builder
	PrintFig6(&sb, curves)
	if !strings.Contains(sb.String(), "crossover") {
		t.Fatal("PrintFig6 missing crossover")
	}
}

func TestFig7Schedule(t *testing.T) {
	res := Fig7(Fig6Constants(), 60, 8, 64)
	if len(res.TauStars) != 8 || len(res.TauFormula) != 8 {
		t.Fatal("wrong interval count")
	}
	// The schedule must be non-increasing and end below its start.
	for i := 1; i < len(res.TauStars); i++ {
		if res.TauStars[i] > res.TauStars[i-1] {
			t.Fatalf("tau* increased at interval %d: %v", i, res.TauStars)
		}
	}
	if res.TauStars[len(res.TauStars)-1] >= res.TauStars[0] {
		t.Fatalf("tau* did not decay: %v", res.TauStars)
	}
	var sb strings.Builder
	PrintFig7(&sb, res)
	if !strings.Contains(sb.String(), "interval") {
		t.Fatal("PrintFig7 empty")
	}
}

func TestFig8Shape(t *testing.T) {
	rows := Fig8Bytes(4, 2, 0, 0)
	if len(rows) != 4 {
		t.Fatalf("Fig8 rows %d, want 4", len(rows))
	}
	byKey := map[string]delaymodel.Breakdown{}
	for _, b := range rows {
		byKey[b.Profile+"/"+itoa(b.Tau)] = b
	}
	vgg1 := byKey["VGG16-like/1"]
	res1 := byKey["ResNet50-like/1"]
	// Paper Fig 8: VGG comm ~4x its compute; ResNet comm below compute.
	if vgg1.Comm < 2*vgg1.Compute {
		t.Fatalf("VGG tau=1 comm %v should dwarf compute %v", vgg1.Comm, vgg1.Compute)
	}
	if res1.Comm >= res1.Compute {
		t.Fatalf("ResNet tau=1 comm %v should be below compute %v", res1.Comm, res1.Compute)
	}
	// tau=10 shrinks total time for both, dramatically for VGG.
	vgg10 := byKey["VGG16-like/10"]
	if vgg10.WallClock > 0.5*vgg1.WallClock {
		t.Fatalf("VGG tau=10 total %v not far below tau=1 %v", vgg10.WallClock, vgg1.WallClock)
	}
}

func itoa(n int) string {
	if n == 1 {
		return "1"
	}
	return "10"
}

func TestBuildWorkloadShapes(t *testing.T) {
	for _, arch := range []Arch{ArchLogistic, ArchVGG, ArchResNet} {
		w := BuildWorkload(arch, 4, 4, ScaleQuick, 3)
		if len(w.Shards) != 4 {
			t.Fatalf("%s: %d shards", arch, len(w.Shards))
		}
		if w.Train.N() == 0 || w.Test.N() == 0 {
			t.Fatalf("%s: empty datasets", arch)
		}
		if w.Proto.ParamLen() == 0 {
			t.Fatalf("%s: empty model", arch)
		}
		if w.Delay.M != 4 {
			t.Fatalf("%s: delay model workers", arch)
		}
	}
}

func TestBuildWorkloadDeterministic(t *testing.T) {
	a := BuildWorkload(ArchVGG, 4, 4, ScaleQuick, 9)
	b := BuildWorkload(ArchVGG, 4, 4, ScaleQuick, 9)
	for i := range a.Proto.Params() {
		if a.Proto.Params()[i] != b.Proto.Params()[i] {
			t.Fatal("workload init not deterministic")
		}
	}
	for i := range a.Train.X.Data {
		if a.Train.X.Data[i] != b.Train.X.Data[i] {
			t.Fatal("dataset not deterministic")
		}
	}
}

func TestFig1QuickRun(t *testing.T) {
	cmp := RunComparison(Fig1Spec(ScaleQuick))
	if len(cmp.Order) != 3 { // tau=1, tau=20, AdaComm
		t.Fatalf("methods: %v", cmp.Order)
	}
	for name, tr := range cmp.Traces {
		if tr.Len() < 3 {
			t.Fatalf("%s trace too short", name)
		}
		if tr.FinalLoss() >= tr.Points[0].Loss {
			t.Fatalf("%s did not reduce loss: %v -> %v", name, tr.Points[0].Loss, tr.FinalLoss())
		}
	}
	// tau=20 completes more iterations than tau=1 in the same budget
	// (alpha=1: roughly (1+1)/(1+1/20) ~ 1.9x).
	it1 := cmp.Traces["tau=1"].Last().Iter
	it20 := cmp.Traces["tau=20"].Last().Iter
	if float64(it20) < 1.5*float64(it1) {
		t.Fatalf("tau=20 iterations %d not well above tau=1 %d", it20, it1)
	}
	cmp.Print(io.Discard)
}

// table1Runs are Table 1's four quick comparisons, the 10-class panels of
// Figs 9 and 10, trained once for the tests that read them: VGG at fixed
// and at variable LR, then ResNet at fixed and at variable LR.
var table1Runs = sync.OnceValue(func() [4]*Comparison {
	return [4]*Comparison{
		RunComparison(Fig9Spec(10, false, ScaleQuick)), RunComparison(Fig9Spec(10, true, ScaleQuick)),
		RunComparison(Fig10Spec(10, false, ScaleQuick)), RunComparison(Fig10Spec(10, true, ScaleQuick)),
	}
})

func TestFig9QuickShape(t *testing.T) {
	cmp := table1Runs()[0]
	// AdaComm's tau must decrease over the run.
	first, last := 0, 0
	for _, p := range cmp.Traces["AdaComm"].Points {
		if p.Tau > 0 {
			if first == 0 {
				first = p.Tau
			}
			last = p.Tau
		}
	}
	if first == 0 || last > first {
		t.Fatalf("AdaComm tau trajectory wrong: first %d last %d", first, last)
	}
	cmp.Print(io.Discard)
}

func TestFig14QuickGap(t *testing.T) {
	res := Fig14(ScaleQuick, 5)
	if len(res.SyncAcc) == 0 || len(res.LocalAcc) == 0 {
		t.Fatal("Fig14 recorded no points")
	}
	// The synchronized model must be better on average (paper: ~10% gap;
	// any positive gap validates the mechanism at this scale).
	if math.IsNaN(res.MeanGap) || res.MeanGap <= 0 {
		t.Fatalf("sync-local accuracy gap %v, want > 0", res.MeanGap)
	}
	var sb strings.Builder
	PrintFig14(&sb, res)
	if !strings.Contains(sb.String(), "gap") {
		t.Fatal("PrintFig14 empty")
	}
}

func TestStrategyAblationQuick(t *testing.T) {
	rows := strategyAblation(ScaleQuick)
	if len(rows) != 3 {
		t.Fatalf("strategies %d, want 3", len(rows))
	}
	for _, r := range rows {
		if math.IsNaN(r.FinalLoss) || r.FinalLoss <= 0 {
			t.Fatalf("bad loss for %s: %v", r.Strategy, r.FinalLoss)
		}
	}
	var sb strings.Builder
	printStrategyAblation(&sb, rows)
	if !strings.Contains(sb.String(), "ring-gossip") {
		t.Fatal("printStrategyAblation missing strategies")
	}
}

func TestDelayAblationQuick(t *testing.T) {
	rows := delayAblation(ScaleQuick)
	if len(rows) != 3 {
		t.Fatalf("rows %d, want 3", len(rows))
	}
	// Heavy-tailed distributions must beat the constant-Y formula
	// (straggler mitigation); the constant distribution must match it.
	for _, r := range rows {
		if strings.HasPrefix(r.Dist, "Constant") {
			if math.Abs(r.SpeedupMC-r.ConstantModel) > 0.05*r.ConstantModel {
				t.Fatalf("constant-Y MC %v != formula %v", r.SpeedupMC, r.ConstantModel)
			}
		} else if r.SpeedupMC <= r.ConstantModel {
			t.Fatalf("%s: MC speedup %v should exceed eq-12 %v",
				r.Dist, r.SpeedupMC, r.ConstantModel)
		}
	}
}

func TestAdaSyncExperimentQuick(t *testing.T) {
	rows := adaSyncAblation(ScaleQuick)
	if len(rows) != 3 {
		t.Fatalf("rows %d, want 3", len(rows))
	}
	byName := map[string]adaSyncRow{}
	for _, r := range rows {
		byName[r.Method] = r
		if math.IsNaN(r.FinalLoss) {
			t.Fatalf("NaN loss for %s", r.Method)
		}
	}
	async := byName["K=1 (async)"]
	sync := byName["K=8 (sync)"]
	// Async completes far more updates in the same simulated budget.
	if async.Updates < 2*sync.Updates {
		t.Fatalf("async updates %d not well above sync %d", async.Updates, sync.Updates)
	}
	// Async has staleness; sync has none.
	if async.MeanStale <= 0 || sync.MeanStale != 0 {
		t.Fatalf("staleness wrong: async %v sync %v", async.MeanStale, sync.MeanStale)
	}
	var sb strings.Builder
	printAdaSync(&sb, rows)
	if !strings.Contains(sb.String(), "AdaSync") {
		t.Fatal("printAdaSync empty")
	}
}

func TestTable1Quick(t *testing.T) {
	c := table1Runs()
	rows := append(Table1(c[0], c[1]), Table1(c[2], c[3])...)
	if len(rows) != 8 { // 2 archs x 4 methods
		t.Fatalf("Table1 rows %d, want 8", len(rows))
	}
	if rows[0].Model != "vgg" || rows[4].Model != "resnet" || rows[5].Method != "tau=5" {
		t.Fatalf("Table1 rows %+v, want vgg's four methods, then resnet's", rows)
	}
	for _, r := range rows {
		if math.IsNaN(r.FixedLR) || r.FixedLR < 0 || r.FixedLR > 1 {
			t.Fatalf("bad fixed-LR accuracy %+v", r)
		}
		if math.IsNaN(r.VariableLR) || r.VariableLR < 0 || r.VariableLR > 1 {
			t.Fatalf("bad variable-LR accuracy %+v", r)
		}
	}
	var sb strings.Builder
	PrintTable1(&sb, rows)
	if !strings.Contains(sb.String(), "Table 1") {
		t.Fatal("PrintTable1 empty")
	}
}

// TestTable1ScoresAtTheSharedBudget builds Table 1 from hand-made traces:
// the budget is the earliest last point over both comparisons, a point
// past it does not count however good, and NaN accuracy is no score.
func TestTable1ScoresAtTheSharedBudget(t *testing.T) {
	nan := math.NaN()
	trace := func(pts ...metrics.Point) *metrics.Trace { return &metrics.Trace{Points: pts} }
	cmp := func(traces map[string]*metrics.Trace) *Comparison {
		return &Comparison{Spec: TrainSpec{Arch: ArchResNet}, Order: []string{"tau=1", "AdaComm"}, Traces: traces}
	}
	fixed := cmp(map[string]*metrics.Trace{
		"tau=1": trace(metrics.Point{Time: 0, Acc: 0.1}, metrics.Point{Time: 20, Acc: 0.5},
			metrics.Point{Time: 46, Acc: 0.6}),
		"AdaComm": trace(metrics.Point{Time: 0, Acc: 0.1}, metrics.Point{Time: 30, Acc: nan},
			metrics.Point{Time: 45.06, Acc: 0.7}, metrics.Point{Time: 45.5, Acc: 0.9}),
	})
	// The variable-LR tau=1 ends first and sets the budget for both
	// comparisons. AdaComm's one later score lands just past it, so it
	// keeps its initialization's accuracy.
	variable := cmp(map[string]*metrics.Trace{
		"AdaComm": trace(metrics.Point{Time: 0, Acc: 0.1172}, metrics.Point{Time: 45.11, Acc: 0.92}),
		"tau=1": trace(metrics.Point{Time: 0, Acc: 0.1}, metrics.Point{Time: 20, Acc: 0.3},
			metrics.Point{Time: 45.06, Acc: nan}),
	})
	want := []Table1Row{
		{Model: "resnet", Method: "tau=1", FixedLR: 0.5, VariableLR: 0.3},
		{Model: "resnet", Method: "AdaComm", FixedLR: 0.7, VariableLR: 0.1172},
	}
	if got := Table1(fixed, variable); !reflect.DeepEqual(got, want) {
		t.Fatalf("Table1 = %+v, want %+v", got, want)
	}
}

func TestHeterogeneousStragglerAblationQuick(t *testing.T) {
	rows := slowLinkAblation(ScaleQuick)
	if len(rows) != 3 {
		t.Fatalf("want 3 methods, got %d", len(rows))
	}
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		if math.IsNaN(r.FinalLoss) || math.IsInf(r.FinalLoss, 0) {
			t.Fatalf("%s diverged: %v", r.Method, r.FinalLoss)
		}
		byName[r.Method] = r
	}
	// tau=1 pays the slow link every iteration, so under the same budget it
	// completes far fewer local steps than the amortizing fixed period.
	if byName["tau=1"].Iters*4 > byName["tau=16"].Iters {
		t.Fatalf("tau=1 iters %d should trail tau=16 iters %d by >= 4x",
			byName["tau=1"].Iters, byName["tau=16"].Iters)
	}
	// AdaComm starts at tau0 (amortizing the slow link) and decays tau, so
	// it must complete more work AND reach a lower loss than communicating
	// every step on the constrained link.
	if byName["adacomm"].Iters <= byName["tau=1"].Iters {
		t.Fatalf("adacomm iters %d should beat tau=1 iters %d",
			byName["adacomm"].Iters, byName["tau=1"].Iters)
	}
	if byName["adacomm"].FinalLoss >= byName["tau=1"].FinalLoss {
		t.Fatalf("adacomm loss %v should beat tau=1 loss %v on the slow link",
			byName["adacomm"].FinalLoss, byName["tau=1"].FinalLoss)
	}
	var buf strings.Builder
	printSlowLink(&buf, ScaleQuick, rows)
	if !strings.Contains(buf.String(), "adacomm") {
		t.Fatal("print output missing methods")
	}
}

// The PR's acceptance criterion: on the 10x-straggler link profile the
// link-aware AdaComm reaches the shared target loss in measurably less
// simulated wall-clock than the paper's static rule. Deterministic seeds.
func TestLinkAwareAblationBeatsStaticAdaComm(t *testing.T) {
	target, rows := linkAwareAblation(ScaleQuick)
	if target <= 0 {
		t.Fatalf("degenerate target %v", target)
	}
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	static, aware := byName["adacomm"], byName["adacomm+link"]
	if static.Method == "" || aware.Method == "" {
		t.Fatalf("missing methods in %v", rows)
	}
	if math.IsNaN(static.TimeToTarget) || math.IsNaN(aware.TimeToTarget) {
		t.Fatalf("time-to-target undefined: static %v aware %v", static.TimeToTarget, aware.TimeToTarget)
	}
	if aware.TimeToTarget >= static.TimeToTarget {
		t.Fatalf("link-aware AdaComm not faster to target: %v vs %v sim-s",
			aware.TimeToTarget, static.TimeToTarget)
	}
	if aware.Iters <= static.Iters {
		t.Fatalf("link-aware AdaComm did not buy iterations: %d vs %d", aware.Iters, static.Iters)
	}
	if aware.MinLoss > static.MinLoss {
		t.Fatalf("link-aware AdaComm traded away loss: %v vs %v", aware.MinLoss, static.MinLoss)
	}
}

// And the AdaSync-K half: the link-aware cap keeps the slow link from gating
// updates, reaching the target sooner within the same budget.
func TestLinkAwareAblationBeatsStaticAdaSync(t *testing.T) {
	target, rows := linkAwareAdaSyncAblation(ScaleQuick)
	if target <= 0 {
		t.Fatalf("degenerate target %v", target)
	}
	byName := map[string]linkAwareRow{}
	for _, r := range rows {
		byName[r.Method] = r
	}
	static, aware := byName["adasync"], byName["adasync+link"]
	if static.Method == "" || aware.Method == "" {
		t.Fatalf("missing methods in %v", rows)
	}
	if math.IsNaN(static.TimeToTarget) || math.IsNaN(aware.TimeToTarget) {
		t.Fatalf("time-to-target undefined: static %v aware %v", static.TimeToTarget, aware.TimeToTarget)
	}
	if aware.TimeToTarget >= static.TimeToTarget {
		t.Fatalf("link-aware AdaSync not faster to target: %v vs %v sim-s",
			aware.TimeToTarget, static.TimeToTarget)
	}
	if aware.Iters <= static.Iters {
		t.Fatalf("link-aware AdaSync did not buy updates: %d vs %d", aware.Iters, static.Iters)
	}
}

func TestPrintLinkAware(t *testing.T) {
	rows := []linkAwareRow{
		{Method: "adacomm", FinalLoss: 0.62, MinLoss: 0.62, TimeToTarget: 290, Iters: 45, FinalTau: 1},
		{Method: "adacomm+link", FinalLoss: 0.55, MinLoss: 0.55, TimeToTarget: 99, Iters: 144, FinalTau: 8},
	}
	var buf bytes.Buffer
	printLinkAware(&buf, "link-aware ablation", 0.97, rows)
	out := buf.String()
	if !strings.Contains(out, "adacomm+link") || !strings.Contains(out, "t(target)") {
		t.Fatalf("print output missing columns:\n%s", out)
	}
}

// The size-aware Fig 5/8 drivers must reproduce the size-free figures bit
// for bit at a zero payload, and charge the transfer term otherwise.
func TestFig5BytesZeroPayloadBitIdentical(t *testing.T) {
	free := Fig5Bytes(2000, 1, 0, 0)
	zero := Fig5Bytes(2000, 1, 0, 4e6)
	if free.SyncMean != zero.SyncMean || free.PAvgMean != zero.PAvgMean {
		t.Fatalf("zero-payload means diverged: %v/%v vs %v/%v",
			free.SyncMean, free.PAvgMean, zero.SyncMean, zero.PAvgMean)
	}
	for i := range free.SyncHist.Counts {
		if free.SyncHist.Counts[i] != zero.SyncHist.Counts[i] ||
			free.PAvgHist.Counts[i] != zero.PAvgHist.Counts[i] {
			t.Fatalf("zero-payload histograms diverged at bin %d", i)
		}
	}
	sized := Fig5Bytes(2000, 1, 800000, 4e6)
	if sized.SyncMean <= free.SyncMean+0.19 {
		t.Fatalf("sized sync mean %v, want ~%v + 0.2", sized.SyncMean, free.SyncMean)
	}
	// PASGD amortizes the transfer over tau=10 iterations.
	if sized.PAvgMean <= free.PAvgMean || sized.PAvgMean >= free.PAvgMean+0.19 {
		t.Fatalf("sized PASGD mean %v, want in (%v, %v)", sized.PAvgMean, free.PAvgMean, free.PAvgMean+0.19)
	}
}

func TestFig8BytesZeroPayloadBitIdentical(t *testing.T) {
	free := Fig8Bytes(4, 2, 0, 0)
	sized := Fig8Bytes(4, 2, 800000, 4e6)
	for i := range sized {
		if sized[i].Comm <= free[i].Comm {
			t.Fatalf("constrained breakdown %d comm %v not above free %v",
				i, sized[i].Comm, free[i].Comm)
		}
	}
}

func TestSizeAwareConstants(t *testing.T) {
	c := Fig6Constants()
	if got := SizeAwareConstants(c, 0, 4e6); got != c {
		t.Fatalf("zero payload changed constants: %+v", got)
	}
	if got := SizeAwareConstants(c, 800000, 0); got != c {
		t.Fatalf("zero bandwidth changed constants: %+v", got)
	}
	got := SizeAwareConstants(c, 800000, 4e6)
	if got.D != c.D+0.2 {
		t.Fatalf("D = %v, want %v", got.D, c.D+0.2)
	}
}

// -bandwidth without a payload must not relabel the profiles: with bytes = 0
// the sampler ignores bandwidth, so the rows must stay the size-free ones,
// names included.
func TestFig8BytesBandwidthAloneIsSizeFree(t *testing.T) {
	free := Fig8Bytes(4, 2, 0, 0)
	got := Fig8Bytes(4, 2, 0, 4e6)
	for i := range free {
		if got[i] != free[i] {
			t.Fatalf("bandwidth-only breakdown %d diverged: %+v vs %+v", i, got[i], free[i])
		}
	}
}

// TestExamplesIsWhatBuildWorkloadGenerates: the sizes a command checks its
// -classes flag against are the sizes the builder uses, and a class count at
// the bound still builds (one more would panic in the generator).
func TestExamplesIsWhatBuildWorkloadGenerates(t *testing.T) {
	for _, arch := range []Arch{ArchLogistic, ArchVGG, ArchResNet} {
		for _, scale := range []Scale{ScaleQuick, ScaleFull} {
			train, test := Examples(arch, scale)
			w := BuildWorkload(arch, train+test, 2, scale, 1)
			if w.Train.N() != train || w.Test.N() != test {
				t.Errorf("%s scale %d: built %d + %d examples, Examples says %d + %d", arch, scale, w.Train.N(), w.Test.N(), train, test)
			}
		}
	}
	if train, test := Examples("foo", ScaleQuick); train != 0 || test != 0 {
		t.Errorf("unknown arch has %d + %d examples, want none", train, test)
	}
}
