package topocmp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// checkedDocs are the documents whose backticked Go names must exist.
var checkedDocs = []string{"README.md", "DESIGN.md"}

// docNamePath matches a backticked span of two or three dot-separated
// identifiers: `pkg.Name`, `Type.Member` or `pkg.Type.Member`.
var docNamePath = regexp.MustCompile(`^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*){1,2}$`)

// fileSuffixes are the last segments that make a span a file name, such as
// `hierarchy.go` or `run.json`, not a Go name.
var fileSuffixes = map[string]bool{"go": true, "md": true, "json": true, "dat": true, "sh": true, "mod": true}

// TestDocNamesExist keeps the documents' Go names current. Every backticked
// `a.b` or `a.b.c` span whose first segment is a package or a type of the
// module must name declared things: after a package, a top-level type,
// function, const or var, then a field or method of that type; after a
// type, a field or method of a type of that name. Test files count, so the
// documents may cite tests and their helpers. A span that appears whole in
// a string literal also passes: registry metric names such as
// `hierarchy.link_value_sweeps` are strings, not declarations.
func TestDocNamesExist(t *testing.T) {
	ix := indexModule(t)
	for _, doc := range checkedDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range codeSpans(string(src)) {
			segs := strings.Split(span.text, ".")
			if !docNamePath.MatchString(span.text) || fileSuffixes[segs[len(segs)-1]] || !ix.roots[segs[0]] {
				continue
			}
			if !ix.declared[span.text] && !ix.inLiteral(span.text) {
				t.Errorf("%s:%d: `%s` names nothing declared in the module", doc, span.line, span.text)
			}
		}
	}
}

// codeSpan is one inline code span and the line it starts on.
type codeSpan struct {
	text string
	line int
}

// codeSpans returns the inline code spans of a Markdown document, skipping
// fenced code blocks.
func codeSpans(doc string) []codeSpan {
	var out []codeSpan
	fenced := false
	for i, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		parts := strings.Split(line, "`")
		for k := 1; k+1 < len(parts); k += 2 {
			out = append(out, codeSpan{text: parts[k], line: i + 1})
		}
	}
	return out
}

// moduleIndex holds what the module's Go files declare.
type moduleIndex struct {
	roots    map[string]bool // package and type names
	declared map[string]bool // pkg.Name, pkg.Type.Member and Type.Member
	literals []string        // every string literal's value
}

// indexModule parses every Go file of the module, tests included, below the
// working directory; directories with their own go.mod (bench/) belong to
// other modules. An external test package (pkg_test) counts as pkg.
func indexModule(t *testing.T) *moduleIndex {
	t.Helper()
	ix := &moduleIndex{roots: map[string]bool{}, declared: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.add(f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func (ix *moduleIndex) add(f *ast.File) {
	pkg := strings.TrimSuffix(f.Name.Name, "_test")
	ix.roots[pkg] = true
	member := func(typ, name string) {
		ix.declared[pkg+"."+typ+"."+name] = true
		ix.declared[typ+"."+name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				ix.declared[pkg+"."+d.Name.Name] = true
			} else if typ := receiverType(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					ix.roots[s.Name.Name] = true
					ix.declared[pkg+"."+s.Name.Name] = true
					for _, m := range typeMembers(s.Type) {
						member(s.Name.Name, m)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						ix.declared[pkg+"."+n.Name] = true
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if v, err := strconv.Unquote(lit.Value); err == nil {
				ix.literals = append(ix.literals, v)
			}
		}
		return true
	})
}

// receiverType returns the type name of a method receiver: T, *T, T[P] or
// *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// typeMembers returns the field names of a struct type (an embedded field
// by its type name) and the method names of an interface type.
func typeMembers(e ast.Expr) []string {
	var fields *ast.FieldList
	switch x := e.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default:
		return nil
	}
	var out []string
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			out = append(out, receiverType(f.Type))
		}
		for _, n := range f.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// inLiteral reports whether span appears whole in a string literal: not
// as part of a longer name.
func (ix *moduleIndex) inLiteral(span string) bool {
	whole := regexp.MustCompile(`(^|[^A-Za-z0-9_.])` + regexp.QuoteMeta(span) + `($|[^A-Za-z0-9_])`)
	for _, lit := range ix.literals {
		if whole.MatchString(lit) {
			return true
		}
	}
	return false
}
