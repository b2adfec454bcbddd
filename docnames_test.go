package matrix_test

import (
	"encoding/json"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestDocNamesResolve fails when README.md or a doc under docs/ names, in
// backticks, a `pkg.Name`, `pkg.Type.Method` or `pkg.Type.Field` of this
// module that the code does not declare: the name was renamed or deleted and
// the prose kept it. `pkg.Method` is the docs' shorthand for a method of one
// of pkg's types, and `pkg.TestName` names a test. A "History" section
// records what was, and is exempt.
func TestDocNamesResolve(t *testing.T) {
	ld, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	docs, _ := filepath.Glob("docs/*.md")
	found := 0
	for _, doc := range append(docs, "README.md") {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		names, stale := docNames(string(src), ld)
		found += names
		for _, s := range stale {
			t.Errorf("%s:%d names `%s`, which this module does not declare", doc, s.line, s.name)
		}
	}
	if found < 50 {
		t.Errorf("found %d module names in the docs, want the hundred-odd they hold: the extraction broke", found)
	}
}

// TestDocNamesSeesAStaleName runs the check over a planted doc.
func TestDocNamesSeesAStaleName(t *testing.T) {
	ld, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join([]string{
		"# Walk",
		"`node.Handle(dst, from, m, now)` judges, `node.Out.Route` walks,",
		"`sim.Config.Middleware` mounts, `node.Step` steps and `node.TestHandleAdopt`",
		"tests; `io.ReadFull`, `conn.Send`, `flight.csv` and `sim.tick_ms_p50` are",
		"not this module's names. `node.Adoption` is gone, and so are `node.Out.Walk`,",
		"`core.Stats.Forwarded` and `node.TestGone`.",
		"```go",
		"x := `node.Fenced`",
		"```",
		"## History",
		"`node.Adoption` was once here.",
		"### Detail",
		"`sim.admit` too.",
		"## Now",
		"`sim.admit` is not.",
	}, "\n")
	names, stale := docNames(doc, ld)
	var got []string
	for _, s := range stale {
		got = append(got, s.name)
	}
	want := []string{"node.Adoption", "node.Out.Walk", "core.Stats.Forwarded", "node.TestGone", "sim.admit"}
	if !slices.Equal(got, want) {
		t.Errorf("stale names %q, want %q", got, want)
	}
	if len(stale) > 0 && stale[len(stale)-1].line != 15 {
		t.Errorf("`sim.admit` reported at line %d, want 15", stale[len(stale)-1].line)
	}
	if names != 10 {
		t.Errorf("checked %d module names, want 10", names)
	}
}

// staleName is one backticked name that does not resolve.
type staleName struct {
	name string
	line int
}

// goName is the shape of a checked code span: pkg.Name or pkg.Type.Member,
// optionally called.
var goName = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?(?:\(.*\))?$`)

// fileExt matches the second components that make a span a file name
// (`flight.csv`), not a Go name.
var fileExt = regexp.MustCompile(`^(json|csv|txt|go|md|yml|out|snap)$`)

// benchMetrics is the set of metric names BENCHMARK.json declares
// (`sim.tick_ms_p50`, `coordinator.splits`): dotted like Go names, but not.
var benchMetrics = sync.OnceValue(func() map[string]bool {
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	src, _ := os.ReadFile("BENCHMARK.json")
	_ = json.Unmarshal(src, &decl)
	names := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		names[m.Name] = true
	}
	return names
})

// isTest matches the name of a test, fuzz target or benchmark function.
var isTest = regexp.MustCompile(`^(Test|Fuzz|Benchmark)`)

// docNames checks every inline code span of the markdown src, outside fenced
// blocks and "History" sections, whose first component is a package of ld's
// module (a main package names nothing). It returns how many it checked and
// those that do not resolve.
func docNames(src string, ld *surfaceLoader) (checked int, stale []staleName) {
	pkgs := map[string][]*types.Package{}
	for _, pkg := range ld.pkgs {
		if pkg.Name() != "main" {
			pkgs[pkg.Name()] = append(pkgs[pkg.Name()], pkg)
		}
	}
	fenced, skipLevel := false, 0 // skipLevel: the heading level of the History section being skipped
	for i, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if level := len(line) - len(strings.TrimLeft(line, "#")); level > 0 && strings.HasPrefix(line[level:], " ") {
			if skipLevel == 0 || level <= skipLevel {
				skipLevel = 0
				if strings.Contains(line, "History") {
					skipLevel = level
				}
			}
			continue
		}
		if skipLevel > 0 {
			continue
		}
		spans := strings.Split(line, "`")
		for k := 1; k < len(spans); k += 2 {
			m := goName.FindStringSubmatch(spans[k])
			if m == nil || pkgs[m[1]] == nil || m[3] == "" && fileExt.MatchString(m[2]) || benchMetrics()[m[0]] {
				continue
			}
			checked++
			if !slices.ContainsFunc(pkgs[m[1]], func(pkg *types.Package) bool { return resolves(ld, pkg, m[2], m[3]) }) {
				name := m[1] + "." + m[2]
				if m[3] != "" {
					name += "." + m[3]
				}
				stale = append(stale, staleName{name, i + 1})
			}
		}
	}
	return checked, stale
}

// resolves reports whether pkg declares name — a package-level name, a
// method of one of its types, or a test in its test files — and member as a
// field or method of it when member is set.
func resolves(ld *surfaceLoader, pkg *types.Package, name, member string) bool {
	scope := pkg.Scope()
	if obj := scope.Lookup(name); obj != nil {
		if member == "" {
			return true
		}
		found, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, member)
		return found != nil
	}
	if member != "" {
		return false
	}
	if isTest.MatchString(name) {
		tests, _ := filepath.Glob(filepath.Join(ld.dir, strings.TrimPrefix(pkg.Path(), ld.module), "*_test.go"))
		return slices.ContainsFunc(tests, func(path string) bool {
			src, _ := os.ReadFile(path)
			return strings.Contains(string(src), "\nfunc "+name+"(")
		})
	}
	return slices.ContainsFunc(scope.Names(), func(typ string) bool {
		tn, ok := scope.Lookup(typ).(*types.TypeName)
		if !ok {
			return false
		}
		m, _, _ := types.LookupFieldOrMethod(tn.Type(), true, pkg, name)
		_, isMethod := m.(*types.Func)
		return isMethod
	})
}
