package matrix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests reads every `go test` line of the CI workflow and
// fails when a -run or -fuzz pattern matches no Test or Fuzz function declared
// in a package the line names: `go test -run` exits 0 on zero matches, so a
// rename would otherwise turn a gate off in silence. Only a pattern's first
// element is checked — subtest names exist at run time only.
func TestCIPatternsMatchTests(t *testing.T) {
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz)[= ]('[^']*'|\S+)`)
	checked := 0
	for _, line := range strings.Split(string(ci), "\n") {
		line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "run:"))
		if !strings.HasPrefix(line, "go test ") {
			continue
		}
		var dirs []string
		for _, arg := range strings.Fields(line) {
			if arg != "./..." && strings.HasPrefix(arg, "./") {
				dirs = append(dirs, strings.TrimSuffix(arg, "...")) // a tree is checked at its root
			}
		}
		for _, m := range flag.FindAllStringSubmatch(line, -1) {
			first, _, _ := strings.Cut(strings.Trim(m[2], "'"), "/")
			if first == "^$" {
				continue // "run no tests", beside a -fuzz target
			}
			re, err := regexp.Compile(first)
			if err != nil {
				t.Errorf("%s: bad pattern %q: %v", line, first, err)
				continue
			}
			if len(dirs) == 0 {
				t.Errorf("%s: -%s on a line that names no single package; the gate cannot check it", line, m[1])
			}
			prefix := map[string]string{"run": "Test", "fuzz": "Fuzz"}[m[1]]
			for _, dir := range dirs {
				checked++
				if !declares(t, dir, prefix, re) {
					t.Errorf("%s: pattern %q matches no %s function declared in %s", line, first, prefix, dir)
				}
			}
		}
	}
	if checked < 10 {
		t.Errorf("found %d (package, pattern) pairs in ci.yml, want the dozen it has: the extraction broke", checked)
	}
}

// declares reports whether a _test.go file in dir declares a top-level
// function named prefix+Xxx that re matches.
func declares(t *testing.T, dir, prefix string, re *regexp.Regexp) bool {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) && re.MatchString(fn.Name.Name) {
				return true
			}
		}
	}
	return false
}
