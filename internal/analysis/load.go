package analysis

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Finding is one diagnostic of a linted package; its JSON form is
// pdtl-lint -json's record.
type Finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"-"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// listed is the part of a `go list -json` record the loader reads.
type listed struct {
	ImportPath string // "p [p.test]" for a variant compiled for p's tests
	Dir        string
	GoFiles    []string // test files included, in a test variant
	Export     string
	Standard   bool
	DepOnly    bool
	ImportMap  map[string]string
}

// Lint type-checks, in one process and in dependency order, every
// module package that the patterns match or depend on, test variants
// included, as `go list -deps -test` lists them from the working
// directory, and runs the analyzers over each; facts flow from a
// package to its importers. The findings are those of the matched
// packages, sorted. As under go vet, a package with in-package tests is
// reported through its test variant, which holds its files and its
// tests'.
//
// Standard-library packages are imported from their export data. Files
// under the working directory are named relative to it, as go vet names
// them.
func Lint(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	pkgs, err := goList(patterns)
	if err != nil {
		return nil, err
	}
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string)
	ids := make(map[string]bool)
	for _, p := range pkgs {
		if p.Standard {
			exports[p.ImportPath] = p.Export
		}
		ids[p.ImportPath] = true
	}
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})

	checked := make(map[string]*types.Package)
	facts := make(Facts)
	out := []Finding{}
	for _, p := range pkgs {
		// The .test mains are generated and import nothing worth checking.
		if p.Standard || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		names := make([]string, len(p.GoFiles))
		for i, name := range p.GoFiles {
			names[i] = filepath.Join(p.Dir, name)
			if rel, err := filepath.Rel(wd, names[i]); err == nil && filepath.IsLocal(rel) {
				names[i] = rel
			}
		}
		imp := ImporterFunc(func(path string) (*types.Package, error) {
			if id, ok := p.ImportMap[path]; ok {
				path = id
			}
			if pkg, ok := checked[path]; ok {
				return pkg, nil
			}
			return std.Import(path)
		})
		path, _, _ := strings.Cut(p.ImportPath, " ")
		pkg, err := Check(fset, path, names, imp)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = pkg.Types
		report := !p.DepOnly && !ids[p.ImportPath+" ["+p.ImportPath+".test]"]
		for _, a := range analyzers {
			facts.Run(a, fset, pkg, func(d Diagnostic) {
				if report {
					p := fset.Position(d.Pos)
					out = append(out, Finding{p.Filename, p.Line, p.Column, a.Name, d.Message})
				}
			})
		}
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.File, b.File), a.Line-b.Line, a.Col-b.Col,
			strings.Compare(a.Analyzer, b.Analyzer), strings.Compare(a.Message, b.Message))
	})
	return out, nil
}

// goList runs `go list -deps -test -export -json` on patterns, which
// fails on a package that does not load; the records come in dependency
// order.
func goList(patterns []string) ([]listed, error) {
	cmd := exec.Command("go", append([]string{"list", "-deps", "-test", "-export", "-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,ImportMap", "--"}, patterns...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var pkgs []listed
	for dec := json.NewDecoder(&stdout); dec.More(); {
		var p listed
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// ImporterFunc is a types.Importer.
type ImporterFunc func(path string) (*types.Package, error)

func (f ImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// Package is one type-checked package.
type Package struct {
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Check parses the named files and type-checks them as the package
// path, resolving imports through imp.
func Check(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	p := &Package{Info: &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}}
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.Files = append(p.Files, f)
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	var err error
	p.Types, err = conf.Check(path, fset, p.Files, p.Info)
	return p, err
}
