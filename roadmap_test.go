package matrix_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRoadmapCitationsAreOpen fails when a program file, a CI workflow,
// README.md or a doc under docs/ cites `ROADMAP item N` for an N that
// ROADMAP.md no longer lists under "Open items". Item numbers are stable and a
// finished item's number is retired, so such a citation points at nothing.
// CHANGES.md and docs/PERF.md are per-change history, and benchmark/ is
// edited only by benchmark-only changes: none of them is held to today's list.
func TestRoadmapCitationsAreOpen(t *testing.T) {
	roadmap, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	_, items, _ := strings.Cut(string(roadmap), "\n## Open items\n")
	items, _, _ = strings.Cut(items, "\n## ")
	open := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^\s*(\d+)\. \*\*`).FindAllStringSubmatch(items, -1) {
		open[m[1]] = true
	}
	if len(open) < 3 {
		t.Fatalf("found %d open items in ROADMAP.md: the extraction broke", len(open))
	}

	files, _ := filepath.Glob(".github/workflows/*.yml")
	docs, _ := filepath.Glob("docs/*.md")
	for _, doc := range append(docs, "README.md") {
		if doc != filepath.Join("docs", "PERF.md") {
			files = append(files, doc)
		}
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); d.IsDir() && path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && isProgramFile(path) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A citation may wrap inside a Go or YAML comment.
	cite := regexp.MustCompile(`ROADMAP(?:\s|//|#)+item\s+(\d+)`)
	found := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cite.FindAllSubmatchIndex(src, -1) {
			found++
			if n := string(src[m[2]:m[3]]); !open[n] {
				line := 1 + strings.Count(string(src[:m[0]]), "\n")
				t.Errorf("%s:%d cites ROADMAP item %s, which ROADMAP.md does not list as open", file, line, n)
			}
		}
	}
	if found < 3 {
		t.Errorf("found %d ROADMAP citations, want the handful the tree has: the extraction broke", found)
	}
}
