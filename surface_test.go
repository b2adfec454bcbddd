package matrix_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// surfaceAllow lists the functions and methods under internal/ that no
// non-test file outside benchmark/ names, and why each stays. Keys are
// "package.Name"; "package.*" exempts a whole package.
var surfaceAllow = map[string]string{
	// Deliberate test seams.
	"gameserver.AddObject": "tests seed map objects; no bundled game script creates them yet",
	"core.TableVersion":    "tests wait on overlap-table propagation by version",
	"trace.ValidateJSON":   "the trace-format checker every exporter test shares",
	"cluster.*":            "internal/cluster is the in-process fleet harness the heal/drain suites drive; all of it exists for tests",
	// Called through an interface, never by name.
	"netem.Less": "heap.Interface of the delayed-send queue; container/heap calls it",
	"netem.Swap": "heap.Interface of the delayed-send queue; container/heap calls it",
	// Only benchmark/ calls these (ROADMAP item 9: a benchmark-only PR moves
	// it onto the siblings the program uses, the PR after deletes them).
	"coordinator.CheckpointSize": "benchmark/fleet.go reads the coordinator.checkpoint_bytes row through it",
	"gameserver.Process":         "benchmark/probes.go; the program calls ProcessAppend",
	"snapshot.RestoreNode":       "benchmark/probes.go; the sim calls RestoreState, live hosts RestoreNodeGame",
	"spatial.QueryCircle":        "benchmark/probes.go; the program calls QueryDiscs",
}

// TestNoTestOnlySurface fails when an exported function or method declared
// in a non-test file under internal/ is named by _test.go files only, or by
// nothing: such a name is surface the program does not use, kept alive by
// its own tests. Matching is by bare identifier over every non-test file
// outside benchmark/ (cmd/, examples/ and the facade count as the program),
// so a common name (String, Len, Close) can hide a dead declaration but a
// live one is never accused.
func TestNoTestOnlySurface(t *testing.T) {
	type decl struct{ pkg, name, pos string }
	var decls []decl
	used := map[string]bool{} // identifiers referenced from non-test files
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || strings.HasPrefix(path, "benchmark/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fn.Name] = true
			name := fn.Name.Name
			if !strings.HasPrefix(filepath.ToSlash(path), "internal/") || !ast.IsExported(name) {
				continue
			}
			decls = append(decls, decl{f.Name.Name, name, fset.Position(fn.Pos()).String()})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		seen[key], seen[d.pkg+".*"] = true, true
		_, allowed := surfaceAllow[key]
		if used[d.name] {
			if allowed {
				t.Errorf("surfaceAllow lists %s, but non-test code names it: drop the entry", key)
			}
			continue
		}
		if _, pkgAllowed := surfaceAllow[d.pkg+".*"]; !allowed && !pkgAllowed {
			t.Errorf("%s: %s is named by no non-test file: delete it (and the tests that were its only callers) or add it to surfaceAllow with the reason", d.pos, key)
		}
	}
	for key := range surfaceAllow {
		if !seen[key] {
			t.Errorf("surfaceAllow lists %s, which is not declared under internal/", key)
		}
	}
	if len(surfaceAllow) > 20 {
		t.Errorf("surfaceAllow has %d entries; the budget is 20", len(surfaceAllow))
	}
}
