package matrix_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
)

// singleOwner lists the state-machine packages one goroutine owns (ROADMAP
// item 20): their drivers serialize every call, so none of them takes a
// lock. A driver that shares one across goroutines locks around it, as
// host.Client does for the game client and host.CoordinatorHost for the
// coordinator (its lock covers each decision's fan-out too). A live host's
// core, game server and connection tables belong to its tick goroutine,
// which connection events reach as funnel calls; the host locks only the
// status it publishes and its ingress funnel, whose lock also guards the set
// of open connections that Close closes. The game server's receive
// queue, which the host's connection pumps fill, is the one shared
// structure, and its file is the one exception.
var singleOwner = []string{"internal/coordinator", "internal/core", "internal/gameclient", "internal/gameserver", "internal/load", "internal/space"}

// sharedFiles are the program files of single-owner packages that may lock.
var sharedFiles = []string{"internal/gameserver/queue.go"}

// TestSingleOwnerPackagesTakeNoLock fails when a program file of a
// single-owner package imports sync, bar the shared files, each of which
// must still exist.
func TestSingleOwnerPackagesTakeNoLock(t *testing.T) {
	for _, file := range sharedFiles {
		if _, err := os.Stat(file); err != nil {
			t.Errorf("shared file %s: %v: the exception is stale", file, err)
		}
	}
	for _, dir := range singleOwner {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, file := range files {
			if !isProgramFile(file) || slices.Contains(sharedFiles, filepath.ToSlash(file)) {
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
