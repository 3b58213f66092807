// Package analysistest runs an analyzer over a golden package and checks
// its diagnostics against `// want` comments, in the style of
// golang.org/x/tools/go/analysis/analysistest.
//
// A golden package is a directory of Go files (conventionally under the
// analyzer's testdata directory, so the go tool never builds it) whose
// flagged lines carry expectations:
//
//	sp := obs.StartSpan("x") // want `span "x" is started but never ended`
//
// Each want comment holds one or more backquoted or double-quoted
// regular expressions; every expectation must be matched by a diagnostic
// on its line, and every diagnostic must be matched by an expectation.
// Suppressed-negative cases are plain lines carrying a
// //cablevet:ignore directive and no want comment: the framework drops
// the diagnostic before matching, so an unexpected report fails the
// test.
//
// Golden packages import real repository packages — the runner resolves
// imports through `go list -export` from the module root — so analyzers
// are exercised against the production types they match in CI.
package analysistest

import (
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// expectation is one want regexp at a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// wantRe captures each backquoted or quoted pattern in a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// moduleRoot locates the enclosing module so golden-package imports
// resolve against the repository, wherever the test binary runs.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Fatalf("analysistest requires running inside the module")
	}
	return filepath.Dir(gomod)
}

// Run loads the golden package at dir (relative to the caller's
// directory), applies the analyzer, and reports any mismatch between
// diagnostics and want comments as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, moduleRoot(t))
	if err != nil {
		t.Fatalf("loading golden package %s: %v", dir, err)
	}
	diags, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	expects := collectWants(t, pkg.Fset, pkg.Files)

	for _, d := range diags {
		pos := d.Position(pkg.Fset)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.raw)
		}
	}
}

// claim marks the first unmatched expectation covering (file, line, msg).
func claim(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.re.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// collectWants parses every `// want` comment in the package.
func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, m := range wantRe.FindAllStringSubmatch(text[len("want "):], -1) {
					raw := m[1]
					if raw == "" {
						raw = m[2]
					}
					re, err := regexp.Compile(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, raw, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: raw})
				}
			}
		}
	}
	return out
}
