package matrix_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// surfaceAllow lists the declarations under internal/ that no program
// reaches, and why each stays. Keys are "package.Name" for functions, types,
// consts and vars, "package.Receiver.Method" for methods; "package.*" exempts
// a whole package. An entry is a root of its own: what only it needs is live.
var surfaceAllow = map[string]string{
	// Deliberate test seams.
	"gameserver.Server.AddObject":    "tests seed map objects; no bundled game script creates them yet",
	"core.Server.TableVersion":       "tests wait on overlap-table propagation by version",
	"trace.ValidateJSON":             "the trace-format checker every exporter test shares",
	"netem.Conn.Stats":               "tests read a live link's loss/delay decisions; no /metrics row exports them yet",
	"host.ServerHost.CheckpointTick": "the heal suites wait for a fresh checkpoint to land before they kill a server",
	"cluster.*":                      "internal/cluster is the in-process fleet harness the heal/drain suites drive; all of it exists for tests",
	// Only benchmark/ calls these, and each has a sibling the program uses
	// (ROADMAP item 1: a benchmark-only PR moves it onto the sibling, the PR
	// after deletes them). benchmark/ is walked as a caller, so these entries
	// excuse nothing; the gate only says when one stops being true.
	"coordinator.Coordinator.CheckpointSize": "benchmark/fleet.go reads the coordinator.checkpoint_bytes row through it",
	"gameserver.Server.Process":              "benchmark/probes.go; the program calls Serve",
	"snapshot.RestoreNode":                   "benchmark/probes.go's name for nodeblob.Restore, itself probe-only; whoever adopts a blob — live host or simulated server — calls nodeblob.RestoreGame",
	"spatial.Grid.QueryCircle":               "benchmark/probes.go; the program calls QueryDiscs",
}

// TestNoTestOnlySurface fails when a function, method, type, const or var
// declared in a non-test file under internal/ is reachable from no program:
// it is surface kept alive by its own tests only, or by nothing.
func TestNoTestOnlySurface(t *testing.T) {
	ld, err := thisModule()
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := unreachable(ld, surfaceAllow)
	for _, d := range dead {
		t.Errorf("%s: %s is reachable from no main, init, benchmark/ or facade API: delete it (and the tests that were its only callers) or add it to surfaceAllow with the reason", d.pos, d)
	}
	for _, key := range stale {
		t.Errorf("surfaceAllow lists %s, which is not declared under internal/ or which a program reaches: drop the entry", key)
	}
	if len(surfaceAllow) > 20 {
		t.Errorf("surfaceAllow has %d entries; the budget is 20", len(surfaceAllow))
	}
}

// TestSurfaceGateSeesPlantedDeadCode runs the gate over a toy module with an
// unreachable type, const, var, function and method next to live twins of
// each — live only through sort.Interface, only through fmt, only through an
// allowlisted seam, only from benchmark/ — and expects exactly the planted
// ones back, plus the allowlist entries that are not true.
func TestSurfaceGateSeesPlantedDeadCode(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod": "module planted\n",
		"cmd/prog/main.go": `package main

import (
	"fmt"
	"sort"

	"planted/internal/p"
)

func main() {
	var l p.Live
	sort.Sort(l)
	fmt.Println(l.Called(), p.LiveConst, p.LiveVar, p.Shown{})
}
`,
		"benchmark/main.go": `package main

import "planted/internal/p"

func main() { p.BenchOnly() }
`,
		"internal/p/p.go": `package p

type Live []int

func (l Live) Len() int           { return len(l) }
func (l Live) Less(i, j int) bool { return l[i] < l[j] }
func (l Live) Swap(i, j int)      { l[i], l[j] = l[j], l[i] }
func (l Live) Called() int        { return helper() }
func (l Live) DeadMethod() int    { return deadHelper() }
func (l Live) Seam() int          { return seamHelper() }

type Shown struct{}

func (Shown) String() string { return "fmt finds this one" }

type DeadType struct{ n int }

func (DeadType) Len() int { return 0 }

const (
	LiveConst = 1
	DeadConst = 2
)

var LiveVar, DeadVar = 1, 2

var _ = DeadFunc // an assertion is not a use

func helper() int     { return 1 }
func deadHelper() int { return 2 }
func seamHelper() int { return 3 }
func DeadFunc()       {}
func BenchOnly()      {}
`,
	} {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	allow := map[string]string{"p.Live.Seam": "a seam", "p.BenchOnly": "benchmark/ is a caller, not a program", "p.Live.Called": "stale", "p.Gone": "stale"}
	ld, err := loadModule(dir, "planted")
	if err != nil {
		t.Fatal(err)
	}
	dead, stale := unreachable(ld, allow)
	var got []string
	for _, d := range dead {
		got = append(got, d.String())
	}
	slices.Sort(got)
	want := []string{"const p.DeadConst", "func p.DeadFunc", "func p.deadHelper", "method p.Live.DeadMethod", "type p.DeadType", "var p.DeadVar"}
	if !slices.Equal(got, want) {
		t.Errorf("gate reported %q, want %q", got, want)
	}
	if want := []string{"p.Gone", "p.Live.Called"}; !slices.Equal(stale, want) {
		t.Errorf("stale allowlist entries %q, want %q", stale, want)
	}
}

// decl is one package-level declaration under internal/.
type decl struct {
	obj            types.Object
	kind, key, pos string
}

func (d decl) String() string { return d.kind + " " + d.key }

// reflective names the methods an outside package finds by type assertion on
// an `any`, which no signature shows: they count as interface methods in use
// as soon as live code refers to that package.
var reflective = map[string][]string{
	"fmt":           {"String", "GoString", "Format"},
	"encoding/json": {"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText"},
}

// thisModule is this module's load, shared by the tests that read it.
var thisModule = sync.OnceValues(func() (*surfaceLoader, error) { return loadModule(".", "matrix") })

// loadModule type-checks every non-test package of the module rooted at dir.
func loadModule(dir, module string) (*surfaceLoader, error) {
	ld := &surfaceLoader{
		dir: dir, module: module, fset: token.NewFileSet(),
		pkgs:  map[string]*types.Package{},
		files: map[*types.Package][]*ast.File{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	ld.std = importer.ForCompiler(ld.fset, "source", nil)
	return ld, filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != dir && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		if srcs, _ := filepath.Glob(filepath.Join(path, "*.go")); !slices.ContainsFunc(srcs, isProgramFile) {
			return nil
		}
		rel, _ := filepath.Rel(dir, path)
		_, err = ld.Import(strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/."))
		return err
	})
}

// unreachable walks what the programs of ld's module can reach. Roots are
// every main and init, the exported API of the root (facade) package and, as
// callers in their own right, everything under benchmark/ and every
// allowlisted declaration. A declaration is live when live code refers to it;
// a method is also live when its receiver type is live and its name belongs
// to an interface live code uses (written in it, or in the signature of
// something it refers to — which is how container/heap reaches Less and Swap,
// and node.Out.Route reaches the two drivers' ToClient and FromCore through
// node.Sink). The name match errs towards live: nothing a program can reach
// is accused.
//
// dead is every declaration under internal/ that no root leads to (the
// methods of a dead type are not listed one by one); stale is every allowlist
// key that names nothing, or something the programs reach with benchmark/
// and the allowlist left out.
func unreachable(ld *surfaceLoader, allow map[string]string) (dead []decl, stale []string) {
	module := ld.module
	// One graph node per package-level spec: the objects its source refers
	// to and the interface types written out in it.
	g := surfaceGraph{nodes: map[types.Object]*surfaceNode{}}
	var roots, excused []types.Object
	var decls []decl
	allowed := map[string]bool{} // allowlist keys that name a declaration
	for pkg, files := range ld.files {
		internal := strings.HasPrefix(pkg.Path(), module+"/internal/")
		bench := strings.HasPrefix(pkg.Path(), module+"/benchmark")
		declare := func(src ast.Node, names ...*ast.Ident) {
			n := &surfaceNode{}
			ast.Inspect(src, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.Ident:
					if obj := ld.info.Uses[x]; obj != nil {
						n.refs = append(n.refs, obj)
					}
				case *ast.InterfaceType:
					n.ifaces = append(n.ifaces, ld.info.TypeOf(x))
				}
				return true
			})
			for _, name := range names {
				obj := ld.info.Defs[name]
				if obj == nil || name.Name == "_" {
					continue // `var _ I = (*T)(nil)` asserts; it is not a use
				}
				g.nodes[obj] = n
				g.order = append(g.order, obj)
				d := decl{obj: obj, kind: "func", key: pkg.Name() + "." + name.Name, pos: ld.fset.Position(name.Pos()).String()}
				exported := obj.Exported()
				switch obj := obj.(type) {
				case *types.Func:
					if obj.Signature().Recv() != nil {
						recv := recvName(obj)
						d.kind, d.key = "method", pkg.Name()+"."+recv.Name()+"."+name.Name
						exported = exported && recv.Exported()
					}
				case *types.TypeName:
					d.kind = "type"
				case *types.Const:
					d.kind = "const"
				case *types.Var:
					d.kind = "var"
				}
				switch {
				case bench:
					excused = append(excused, obj)
				case d.kind == "func" && (name.Name == "init" || name.Name == "main" && pkg.Name() == "main"),
					pkg.Path() == module && exported:
					roots = append(roots, obj)
				case internal:
					decls = append(decls, d)
					for _, key := range []string{d.key, pkg.Name() + ".*"} {
						if _, ok := allow[key]; ok {
							allowed[key] = true
							excused = append(excused, obj)
						}
					}
				}
			}
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					declare(d, d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s, s.Name)
						case *ast.ValueSpec:
							declare(s, s.Names...)
						}
					}
				}
			}
		}
	}

	program := g.reach(roots)
	live := g.reach(append(roots, excused...))
	for _, d := range decls {
		if fn, ok := d.obj.(*types.Func); ok && fn.Signature().Recv() != nil && !live[recvName(fn)] {
			continue // reported once, as its type
		}
		if !live[d.obj] {
			dead = append(dead, d)
		}
		if _, ok := allow[d.key]; ok && program[d.obj] {
			stale = append(stale, d.key)
		}
	}
	for key := range allow {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	slices.SortFunc(dead, func(a, b decl) int { return strings.Compare(a.pos, b.pos) })
	slices.Sort(stale)
	return dead, stale
}

// surfaceGraph is the module's declaration graph.
type surfaceGraph struct {
	nodes map[types.Object]*surfaceNode
	order []types.Object // every declared object, for the interface pass
}

type surfaceNode struct {
	refs   []types.Object
	ifaces []types.Type
}

// reach returns everything the roots lead to.
func (g surfaceGraph) reach(roots []types.Object) map[types.Object]bool {
	live := map[types.Object]bool{}
	ifaceNames := map[string]bool{} // method names of every interface live code uses
	seenPkg := map[*types.Package]bool{}
	var useIfaces func(t types.Type, depth int)
	useIfaces = func(t types.Type, depth int) {
		if t == nil || depth > 4 {
			return
		}
		if m, ok := t.(*types.Map); ok {
			useIfaces(m.Key(), depth+1)
		}
		switch u := t.(type) {
		case interface{ Elem() types.Type }: // pointer, slice, array, chan, map
			useIfaces(u.Elem(), depth+1)
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					useIfaces(tup.At(i).Type(), depth+1)
				}
			}
		default:
			if it, ok := t.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceNames[it.Method(i).Name()] = true
				}
			}
		}
	}
	walk := func(from ...types.Object) {
		work := slices.Clone(from) // a stack; the caller keeps its slice
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a generic instantiation is its declaration
			}
			n := g.nodes[obj]
			if n == nil || live[obj] {
				continue
			}
			live[obj] = true
			for _, t := range n.ifaces {
				useIfaces(t, 0)
			}
			for _, ref := range n.refs {
				useIfaces(ref.Type(), 0)
				if p := ref.Pkg(); p != nil && !seenPkg[p] {
					seenPkg[p] = true
					for _, name := range reflective[p.Path()] {
						ifaceNames[name] = true
					}
				}
				work = append(work, ref)
			}
		}
	}
	walk(roots...)
	// Interface dispatch: a method of a live type whose name a used
	// interface carries is live, and so is what its body leads to. That can
	// bring new types and interfaces in, so run to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, obj := range g.order {
			if fn, ok := obj.(*types.Func); ok && !live[obj] && fn.Signature().Recv() != nil && ifaceNames[fn.Name()] && live[recvName(fn)] {
				walk(obj)
				changed = true
			}
		}
	}
	return live
}

// isProgramFile reports whether path is a Go file that is part of a program
// (not a test).
func isProgramFile(path string) bool { return !strings.HasSuffix(path, "_test.go") }

// recvName returns the named type a method is declared on.
func recvName(fn *types.Func) *types.TypeName {
	t := fn.Signature().Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin().Obj()
}

// surfaceLoader type-checks the module's own packages from source into one
// shared types.Info (so an object is the same value from every package that
// names it) and leaves everything else to the stdlib source importer.
type surfaceLoader struct {
	dir, module string
	fset        *token.FileSet
	std         types.Importer
	pkgs        map[string]*types.Package
	files       map[*types.Package][]*ast.File
	info        *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	srcs, err := filepath.Glob(filepath.Join(l.dir, strings.TrimPrefix(path, l.module), "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, src := range srcs {
		if !isProgramFile(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, src, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", path)
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[pkg] = pkg, files
	return pkg, nil
}
