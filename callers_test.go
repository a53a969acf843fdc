package topocmp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// testOnlyReferences are the exported functions under internal/ that no
// non-test code calls but that tests in several packages share, so no
// single package's _test.go can hold them.
var testOnlyReferences = map[string]string{
	"graph.Graph.Fingerprint": "the order-sensitive hash every golden and determinism test pins a built graph with",
	"graph.Graph.BFSCounts":   "scalar shortest-path counts, the reference for the batched Brandes and link-value kernels",
	"graph.Graph.HasEdge":     "an adjacency probe the generator, builder and transform tests assert edges with",
	"stats.Series.YAt":        "reads one point of a series in the metric, experiment and core tests",
}

// TestExportedFuncsHaveNonTestCallers keeps reference implementations and
// wrappers only tests call off the production path: every exported function
// or method under internal/ must be used by the non-test code of the root
// module or of bench/, apart from testOnlyReferences. The scan type-checks
// both modules' non-test files, and the standard library's from source,
// in one universe, so a use anywhere in it counts.
func TestExportedFuncsHaveNonTestCallers(t *testing.T) {
	l := &loader{
		fset:    token.NewFileSet(),
		listed:  map[string]*listedPackage{},
		checked: map[string]*types.Package{},
		used:    map[*types.Func]bool{},
	}
	var roots []string
	for _, dir := range []string{".", "bench"} {
		pkgs, err := goListDeps(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if _, seen := l.listed[p.ImportPath]; seen {
				continue
			}
			l.listed[p.ImportPath] = p
			if !p.Standard {
				roots = append(roots, p.ImportPath)
			}
		}
	}
	for _, path := range roots {
		if _, err := l.load(path); err != nil {
			t.Fatal(err)
		}
	}

	var unused, allowed []string
	for _, path := range roots {
		rel, ok := strings.CutPrefix(path, "topocmp/internal/")
		if !ok {
			continue
		}
		for _, fn := range exportedFuncs(l.checked[path]) {
			name := rel + "." + funcName(fn)
			switch {
			case l.used[fn]:
			case testOnlyReferences[name] != "":
				allowed = append(allowed, name)
			default:
				unused = append(unused, name)
			}
		}
	}
	sort.Strings(unused)
	sort.Strings(allowed)
	if len(unused) > 0 {
		t.Errorf("%d exported functions under internal/ have no non-test caller; delete them or move them into a _test.go file:\n\t%s\n"+
			"besides the %d that testOnlyReferences allows: %s",
			len(unused), strings.Join(unused, "\n\t"), len(allowed), strings.Join(allowed, ", "))
	}
	for name := range testOnlyReferences {
		if !slices.Contains(allowed, name) {
			t.Errorf("testOnlyReferences names %s, which is gone or has a non-test caller", name)
		}
	}
}

// exportedFuncs lists the package's exported functions and the exported
// methods declared on its named types. String and Error are exempt: fmt
// and the error interface call them.
func exportedFuncs(pkg *types.Package) []*types.Func {
	var fns []*types.Func
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			if obj.Exported() {
				fns = append(fns, obj)
			}
		case *types.TypeName:
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && m.Name() != "String" && m.Name() != "Error" {
					fns = append(fns, m)
				}
			}
		}
	}
	return fns
}

// funcName is Name for a function and Type.Name for a method.
func funcName(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name() + "." + fn.Name()
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string
}

// goListDeps lists the packages under dir and everything they import,
// without cgo so that every listed file is plain Go.
func goListDeps(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// loader type-checks listed packages on demand. The standard library is
// checked without function bodies; only its exported API matters here.
type loader struct {
	fset    *token.FileSet
	listed  map[string]*listedPackage
	checked map[string]*types.Package
	used    map[*types.Func]bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func (l *loader) load(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.checked[path]; ok {
		return pkg, nil
	}
	lp, ok := l.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %s was not listed", path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if mapped, ok := lp.ImportMap[imp]; ok {
				imp = mapped
			}
			return l.load(imp)
		}),
		IgnoreFuncBodies: lp.Standard,
	}
	var info *types.Info
	if !lp.Standard {
		info = &types.Info{Uses: map[*ast.Ident]types.Object{}}
	}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	if info != nil {
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				l.used[fn.Origin()] = true
			}
		}
	}
	l.checked[path] = pkg
	return pkg, nil
}
