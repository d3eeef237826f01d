package repro

// Knobs: an exported field of an internal/ struct that other packages fill in
// is configuration only while some shipped program sets it. A field that no
// non-test file outside its package writes — in cmd/*, examples/*, another
// internal/ package or the benchmark module — has one value for every user;
// it fails here by name, to become a constant or go with the path behind it,
// unless knobAllow says why it stays. A knob comes back together with its
// caller, not before.
//
// The recipe: one `go list -deps -json` per module (the root's, and
// benchmark/'s from its own directory, because its go.mod is what maps repro
// to ../), type-check every listed non-standard package from source in the
// dependency order go list prints, and resolve each write through
// types.Info.Uses to the field it targets. Three traps: a field is matched
// by its object, never by its name (experiments.CouplingRow.MaxTau is not
// core's, and three structs had a SlowCutoff); both modules share ONE package
// map, so internal/cluster is checked once and its fields are the same
// objects from either side (seen again through a second importer they would
// be distinct *types.Var); and files are parsed under absolute names. The
// standard library comes from the "source" importer, which needs no go
// command for GOROOT packages.

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// knobAllow lists the exported fields of in-scope structs that no other
// package writes, each with the reason it stays exported. An entry is a field
// ("pkg.Type.Field") or, ending in a dot, a whole struct ("pkg.Type."). The
// test fails on an entry that is written from outside or matches nothing.
var knobAllow = map[string]string{
	"cluster.AsyncConfig.RecordEvents": "the observer switch of the golden and determinism tests: EventTrace is empty without it",
	"compress.Message.":                "a wire format the compressors fill in and Decode reads; engines build only its dense view",
	"delaymodel.Profile.Bandwidth":     "fed from the caller's argument by Profile.Constrained",
	"experiments.TrainSpec.":           "the paper's figure specs, filled by the Fig... constructors; benchmark/ overrides the rest",
}

func TestKnobs(t *testing.T) {
	k := &knobCheck{
		t:       t,
		fset:    token.NewFileSet(),
		pkgs:    map[string]*types.Package{},
		fields:  map[*types.Var]string{},
		written: map[string]bool{},
		inScope: map[string]bool{},
	}
	k.std = importer.ForCompiler(k.fset, "source", nil)
	k.load(".")
	k.load("benchmark")

	var names []string
	for _, name := range k.fields {
		names = append(names, name)
	}
	sort.Strings(names)
	used := map[string]bool{}
	for _, name := range names {
		dot := strings.LastIndex(name, ".")
		typ, field := name[:dot], name[dot+1:]
		if !k.inScope[typ] || !ast.IsExported(field) || k.written[name] {
			continue
		}
		if _, ok := knobAllow[name]; ok {
			used[name] = true
		} else if _, ok := knobAllow[typ+"."]; ok {
			used[typ+"."] = true
		} else {
			t.Errorf("%s is set by no shipped program: make it a constant or delete it with the path behind it, or add it to knobAllow with its reason", name)
		}
	}
	for entry, why := range knobAllow {
		if !used[entry] {
			t.Errorf("knobAllow entry %q (%s) is stale: another package writes it now, or no field of an in-scope struct matches it", entry, why)
		}
	}
}

// knobCheck accumulates, over both modules, the fields of internal/ structs
// and which of them a package other than their own writes.
type knobCheck struct {
	t    *testing.T
	fset *token.FileSet
	std  types.Importer            // the standard library, from source
	pkgs map[string]*types.Package // every non-standard package checked so far

	fields  map[*types.Var]string // field of a named internal/ struct -> "pkg.Type.Field"
	written map[string]bool       // fields some other package writes
	inScope map[string]bool       // "pkg.Type" with at least one such field
}

// Import serves the packages already checked and leaves the rest to the
// standard library's importer.
func (k *knobCheck) Import(path string) (*types.Package, error) {
	if p, ok := k.pkgs[path]; ok {
		return p, nil
	}
	return k.std.Import(path)
}

// load type-checks the non-test files of every package of the module rooted
// at dir, dependencies first, and records their fields and writes.
func (k *knobCheck) load(dir string) {
	k.t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		k.t.Fatalf("go list in %s: %v", dir, err)
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p struct {
			ImportPath, Dir string
			GoFiles         []string
			Standard        bool
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			k.t.Fatalf("go list in %s: %v", dir, err)
		}
		if p.Standard || k.pkgs[p.ImportPath] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(k.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				k.t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		pkg, err := (&types.Config{Importer: k}).Check(p.ImportPath, k.fset, files, info)
		if err != nil {
			k.t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		k.pkgs[p.ImportPath] = pkg
		k.declare(pkg)
		for _, f := range files {
			k.writes(pkg, f, info)
		}
	}
}

// declare indexes the fields of pkg's named struct types, if pkg is under
// internal/. Its importers are checked after it, so every write they make
// finds its field here.
func (k *knobCheck) declare(pkg *types.Package) {
	const root = "repro/internal/"
	if !strings.HasPrefix(pkg.Path(), root) {
		return
	}
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			k.fields[st.Field(i)] = pkg.Path()[len(root):] + "." + name + "." + st.Field(i).Name()
		}
	}
}

// writes records every field another package's struct gets written through in
// f: a keyed composite-literal element, an assignment or op-assignment target,
// an inc/dec. (go vet's composites check keeps unkeyed literals of imported
// structs out of the tree.)
func (k *knobCheck) writes(pkg *types.Package, f *ast.File, info *types.Info) {
	write := func(id *ast.Ident) {
		v, ok := info.Uses[id].(*types.Var)
		if !ok || !v.IsField() || v.Pkg() == pkg {
			return
		}
		if name, ok := k.fields[v.Origin()]; ok {
			k.written[name] = true
			k.inScope[name[:strings.LastIndex(name, ".")]] = true
		}
	}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			write(sel.Sel)
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						write(id)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		}
		return true
	})
}
