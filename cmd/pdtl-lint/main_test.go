package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pdtl/internal/analysis/wirecompat"
)

// modDir is the testdata module, a tiny module with findings planted.
var modDir, _ = filepath.Abs("testdata/lintmod")

// lintmod runs pdtl-lint with args in the testdata module, whose wire
// package stands in for the cluster's, and returns the exit code and
// stdout.
func lintmod(t *testing.T, args ...string) (int, string) {
	t.Helper()
	t.Chdir(modDir)
	def := wirecompat.WirePkg
	wirecompat.WirePkg = "lintmod/wire"
	defer func() { wirecompat.WirePkg = def }()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	if code == 2 {
		t.Fatalf("pdtl-lint %v: exit 2: %s", args, stderr.String())
	}
	return code, stdout.String()
}

// planted is every finding of the testdata module, as file:line analyzer.
var planted = []string{
	"app/app.go:7 ctxflow",          // a violation in a non-test file
	"hot/hot.go:11 hotpathalloc",    // dep.Fill allocates through dep.grow
	"wire/ext_test.go:5 wirecompat", // the external test package
	"wire/wire_test.go:3 wirecompat",
}

func TestLintModule(t *testing.T) {
	code, out := lintmod(t, "./...")
	if code != 1 {
		t.Fatalf("exit %d with findings, want 1:\n%s", code, out)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		file, rest, _ := strings.Cut(line, ":")
		lineNo, _, _ := strings.Cut(rest, ":")
		got = append(got, file+":"+lineNo)
	}
	var want []string
	for _, p := range planted {
		want = append(want, strings.Fields(p)[0])
	}
	if !slices.Equal(got, want) {
		t.Fatalf("findings at %q, want %q:\n%s", got, want, out)
	}
	if !strings.Contains(out, "calls lintmod/dep.Fill, which may allocate: calls lintmod/dep.grow") {
		t.Errorf("the hot path's finding does not name the chain through dep:\n%s", out)
	}
}

func TestLintJSON(t *testing.T) {
	code, out := lintmod(t, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit %d with findings, want 1:\n%s", code, out)
	}
	var records []map[string]any
	if err := json.Unmarshal([]byte(out), &records); err != nil {
		t.Fatalf("-json output is not an array of objects: %v\n%s", err, out)
	}
	var got []string
	for _, r := range records {
		keys := make([]string, 0, len(r))
		for k := range r {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if !slices.Equal(keys, []string{"analyzer", "file", "line", "message"}) || r["message"] == "" {
			t.Fatalf("record %v, want {file, line, analyzer, message}", r)
		}
		got = append(got, fmt.Sprintf("%s:%v %s", r["file"], r["line"], r["analyzer"]))
	}
	if !slices.Equal(got, planted) {
		t.Fatalf("findings %q, want %q", got, planted)
	}
}

// TestLintMatchedOnly lints one package with the package it calls as a
// dependency: facts still flow from dep, and only hot is reported.
func TestLintMatchedOnly(t *testing.T) {
	code, out := lintmod(t, "-json", "./hot")
	if code != 1 || !strings.Contains(out, `"file": "hot/hot.go"`) || strings.Count(out, `"file"`) != 1 {
		t.Fatalf("exit %d, want 1 and hot's one finding:\n%s", code, out)
	}
}

func TestLintClean(t *testing.T) {
	code, out := lintmod(t, "-json", "./clean", "./dep")
	if code != 0 || strings.TrimSpace(out) != "[]" {
		t.Fatalf("exit %d on clean packages, want 0 and []:\n%s", code, out)
	}
	if code, out := lintmod(t, "./clean"); code != 0 || out != "" {
		t.Fatalf("exit %d on a clean package, want 0 and no output:\n%s", code, out)
	}
}
