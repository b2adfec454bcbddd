package matrix_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"testing"
)

// singleOwner lists the state-machine packages one goroutine owns (ROADMAP
// item 20): their drivers serialize every call, so none of them takes a
// lock. A driver that shares one across goroutines locks around it, as
// host.Client does for the game client. core, gameserver and coordinator
// join the list once their drivers own them alone.
var singleOwner = []string{"internal/gameclient", "internal/load", "internal/space"}

// TestSingleOwnerPackagesTakeNoLock fails when a program file of a
// single-owner package imports sync.
func TestSingleOwnerPackagesTakeNoLock(t *testing.T) {
	for _, dir := range singleOwner {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, file := range files {
			if !isProgramFile(file) {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			for _, imp := range f.Imports {
				if path, _ := strconv.Unquote(imp.Path.Value); path == "sync" {
					t.Errorf("%s imports sync: %s has one owner and takes no lock", file, dir)
				}
			}
		}
		if parsed == 0 {
			t.Errorf("%s holds no program file: the list names a package that moved", dir)
		}
	}
}
