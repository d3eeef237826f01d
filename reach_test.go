package repro

// Reachability: every function declared in internal/ is either linked into
// one of the shipped programs (cmd/*, examples/*, the benchmark module) or
// named in reachAllow with the reason it stays. Anything else is dead code
// and fails here by name, so "delete what nothing reaches" is `go test -run
// Reach .` instead of a list somebody compiles by hand.
//
// The recipe: build the mains with -gcflags=all=-l (an inlined function
// leaves no symbol; one go build for this module's eleven, one for the
// benchmark's), union the text symbols `go tool nm` prints, and compare
// with the function declarations go/parser finds in the files go/build
// selects for this platform (a directory walk would list the purego and
// non-amd64 twins, which are never linked here). Generic functions link
// under an instantiation suffix ("compress.grow[go.shape.float64]"), which
// is stripped; assembly-backed declarations have no Go body and are skipped.

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The one reason something no shipped program links may stay: a test needs
// it to check LIVE code, as the reference implementation the live one is
// held to, as the harness that drives it, as the accessor that observes it,
// or as the small model/dataset the live layers and engines are exercised
// on.
const usedByTests = "a test uses it as a reference, harness, observer or subject of live code"

// reachAllow lists what no shipped program links and why it stays. An entry
// is a function ("pkg.Func", "pkg.Type.Method") or, ending in a dot, a
// prefix ("cli/clitest." is the whole package). The test fails on an entry
// that is linked or matches nothing, so the list can only shrink.
var reachAllow = map[string]string{
	// Reference implementations live code is compared with.
	"tensor.GemmTANaive":                  usedByTests,
	"rng.HarmonicNumber":                  usedByTests, // y*H_m + D vs SampleRoundBytes; ExpectedKSyncUpdateTime
	"paramserver.ExpectedKSyncUpdateTime": usedByTests, // vs the K-sync server's clock
	// One network at its own parameters, chunk by chunk: what nn.LossAt and
	// nn.AccuracyAt over several networks and foreign parameters are held
	// to, and GradCheck's loss.
	"nn.Network.Loss":     usedByTests,
	"nn.Network.Accuracy": usedByTests,

	// Harnesses.
	"nn.GradCheck": usedByTests,
	"cli/clitest.": usedByTests,

	// Observers: accessors through which tests read live state.
	"events.Trace.String":            usedByTests,
	"events.Trace.Hash":              usedByTests,
	"events.Clocks.Time":             usedByTests,
	"cluster.AsyncEngine.EventTrace": usedByTests,
	"cluster.AsyncEngine.Version":    usedByTests,
	"cluster.Engine.Dim":             usedByTests,
	"cluster.Engine.Workers":         usedByTests,
	"cluster.Engine.EvalParamsLoss":  usedByTests,
	"paramserver.Server.Clock":       usedByTests,
	"paramserver.Server.Version":     usedByTests,
	"core.AdaComm.LinkFactor":        usedByTests,
	"opt.Global.Buf":                 usedByTests,
	"opt.Optimizer.Steps":            usedByTests,
	"opt.Optimizer.Config":           usedByTests,
	"graph.Graph.Weight":             usedByTests,
	"graph.Graph.Connected":          usedByTests,
	"graph.Graph.MaxDegree":          usedByTests,
	"graph.Sequence.At":              usedByTests,
	"graph.Sequence.N":               usedByTests,
	"graph.Sequence.Varying":         usedByTests,
	"data.Dataset.Validate":          usedByTests,
	"tensor.Fill":                    usedByTests,
	"tensor.Matrix.At":               usedByTests,
	"rng.Histogram.Total":            usedByTests,

	// Test subjects: the small models and datasets the gradient checks, the
	// evaluation oracle and the engine tests run the live layers on.
	"nn.NewMLP":                 usedByTests,
	"nn.NewLinearRegression":    usedByTests,
	"nn.NewTanh":                usedByTests,
	"nn.Tanh.":                  usedByTests,
	"nn.MSE.":                   usedByTests,
	"data.LinearRegressionData": usedByTests,
	"data.TwoSpirals":           usedByTests,
}

func TestReachability(t *testing.T) {
	linked := linkedSymbols(t)
	used := map[string]bool{}
	for _, fn := range declaredFuncs(t) {
		if linked[fn] {
			continue
		}
		if entry := allowedBy(fn); entry != "" {
			used[entry] = true
		} else {
			t.Errorf("%s is linked into no shipped program: delete it, or add it to reachAllow with its reason", fn)
		}
	}
	for entry, why := range reachAllow {
		if !used[entry] {
			t.Errorf("reachAllow entry %q (%s) is stale: it is linked now, or nothing declared matches it", entry, why)
		}
	}
}

// allowedBy returns the reachAllow entry covering fn: its own name, or the
// longest dotted prefix of it that is listed.
func allowedBy(fn string) string {
	if _, ok := reachAllow[fn]; ok {
		return fn
	}
	for i := len(fn) - 1; i > 0; i-- {
		if fn[i-1] == '.' {
			if _, ok := reachAllow[fn[:i]]; ok {
				return fn[:i]
			}
		}
	}
	return ""
}

// linkedSymbols builds every shipped main without inlining and returns the
// internal/ functions their symbol tables hold, as "pkg.Func" and
// "pkg.Type.Method" with the import path relative to repro/internal/.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	tmp := t.TempDir()
	linked := map[string]bool{}
	// nm adds the text symbols of the binary bin, the main called name.
	nm := func(name, bin string) {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", name, err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "  4a1b20 T repro/internal/pkg.Func": text symbols only.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				addSymbol(linked, f[2])
			}
		}
	}
	// One build writes every main of this module into root/ under its
	// directory's name (a failing main is named in go build's output);
	// benchmark/ is a module of its own.
	root := filepath.Join(tmp, "root") + string(filepath.Separator)
	if out, err := exec.Command("go", "build", "-gcflags=all=-l", "-o", root, "./cmd/...", "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("the shipped mains do not build: %v\n%s", err, out)
	}
	for _, dir := range []string{"cmd", "examples"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				nm(dir+"/"+e.Name(), filepath.Join(root, e.Name()))
			}
		}
	}
	bench := filepath.Join(tmp, "benchmark")
	if out, err := exec.Command("go", "build", "-C", "benchmark", "-gcflags=all=-l", "-o", bench, ".").CombinedOutput(); err != nil {
		t.Fatalf("benchmark does not build: %v\n%s", err, out)
	}
	nm("benchmark", bench)
	return linked
}

// addSymbol records the function (and, for a method, the method) a text
// symbol belongs to: "repro/internal/compress.(*TopK).CompressInto.func1"
// marks compress.TopK and compress.TopK.CompressInto.
func addSymbol(linked map[string]bool, sym string) {
	const root = "repro/internal/"
	if !strings.HasPrefix(sym, root) {
		return
	}
	// Drop instantiation suffixes; they nest ("[go.shape.struct { F []int }]").
	var b strings.Builder
	depth := 0
	for _, r := range sym[len(root):] {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name := strings.NewReplacer("(*", "", ")", "").Replace(b.String())
	dot := strings.LastIndex(name, "/") + 1
	dot += strings.Index(name[dot:], ".")
	pkg, parts := name[:dot], strings.Split(strings.TrimSuffix(name[dot+1:], "-fm"), ".")
	linked[pkg+"."+parts[0]] = true
	if len(parts) > 1 {
		linked[pkg+"."+parts[0]+"."+parts[1]] = true
	}
}

// declaredFuncs lists every function and method with a Go body in the
// non-test files go/build selects under internal/, in directory order.
func declaredFuncs(t *testing.T) []string {
	t.Helper()
	var funcs []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		pkg, err := build.ImportDir(dir, 0)
		if _, empty := err.(*build.NoGoError); empty {
			return nil
		}
		if err != nil {
			return err
		}
		rel := strings.TrimPrefix(filepath.ToSlash(dir), "internal/")
		for _, name := range pkg.GoFiles {
			file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					recv := fn.Recv.List[0].Type
					if ptr, ok := recv.(*ast.StarExpr); ok {
						recv = ptr.X
					}
					name = recv.(*ast.Ident).Name + "." + name
				}
				funcs = append(funcs, rel+"."+name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}
