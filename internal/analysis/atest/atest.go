// Package atest is the fixture harness of the pdtl-lint analyzers:
// fixture packages under testdata/src, type-checked by the loader's
// Check with the stdlib source importer, object facts carried across
// fixture packages in load order, and "// want" expectation comments.
//
// Expectation syntax is analysistest's core form: a trailing comment
//
//	// want "regexp" `regexp` ...
//
// on the offending line. Every diagnostic must match one expectation on
// its line and every expectation must be matched by exactly one
// diagnostic.
package atest

import (
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pdtl/internal/analysis"
)

// Run loads the named fixture packages from testdata/src/<name> in
// order, runs a on each, carrying object facts forward, and checks the
// diagnostics of every package against its want comments. Imports of
// sibling fixtures resolve to them, and every other import (stdlib and
// module packages alike) is loaded from source.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	fset := token.NewFileSet()
	src := importer.ForCompiler(fset, "source", nil)
	loaded := make(map[string]*types.Package)
	imp := analysis.ImporterFunc(func(path string) (*types.Package, error) {
		if pkg, ok := loaded[path]; ok {
			return pkg, nil
		}
		return src.Import(path)
	})
	facts := make(analysis.Facts)
	for _, name := range pkgs {
		names, _ := filepath.Glob(filepath.Join("testdata", "src", name, "*.go")) // a well-formed pattern
		pkg, err := analysis.Check(fset, name, names, imp)
		if err != nil || len(names) == 0 {
			t.Fatalf("loading fixture %s (%d files): %v", name, len(names), err)
		}
		loaded[name] = pkg.Types
		var diags []analysis.Diagnostic
		facts.Run(a, fset, pkg, func(d analysis.Diagnostic) { diags = append(diags, d) })
		check(t, fset, pkg.Files, diags)
	}
}

// expectation is one "want" regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// check compares diagnostics against the want comments in files.
func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				// The patterns are Go string literals, double- or back-quoted.
				for s := strings.TrimSpace(m[1]); s != ""; s = strings.TrimSpace(s) {
					q, err := strconv.QuotedPrefix(s)
					if err != nil {
						t.Fatalf("%s: want patterns must be quoted: %q", pos, s)
					}
					s = s[len(q):]
					raw, _ := strconv.Unquote(q) // q is a valid literal
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s: bad want pattern %q: %v", pos, raw, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.raw)
		}
	}
}
