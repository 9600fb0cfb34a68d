package xixa

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	pathpkg "path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachAllowlist names the functions no binary reaches that stay in
// non-test files anyway, each with the test that needs it. Keys are
// "<dir>.<Func>" or "<dir>.<Type>.<Method>", dir relative to the
// repository root (see funcName).
var reachAllowlist = map[string]string{
	"internal/optimizer.NewWithSource":            "engine.TestExecuteMutationSurfacesConflict and TestPlanningErrorReturned plan through a hooked statistics source",
	"internal/optimizer.Optimizer.EnumerateCalls": "xstats.TestAdvisorGoldenAgainstReferenceStats compares Enumerate Indexes call counts across statistics collectors",
	"internal/replica/faultnet.Dialer":            "fault injector of replica.TestReconnectSurvivesSevers, TestByteFaultsDesyncAndRecover and TestReplicationSoak",
	"internal/replica/faultnet.RandomSevers":      "fault injector of replica.TestReplicationSoak",
	"internal/replica/faultnet.Wrap":              "wraps each connection faultnet.Dialer hands the replica fault tests",
	"internal/server.Session.Begin":               "test-driver API, since the wire protocol has no BEGIN: replica.TestSnapshotBootstrapAfterMultiInsertTxn, TestReplicationSoak and TestPromoteAfterPrimaryDies commit multi-statement transactions",
	"internal/server.Txn.Commit":                  "test-driver API, since the wire protocol has no BEGIN: replica.TestSnapshotBootstrapAfterMultiInsertTxn, TestReplicationSoak and TestPromoteAfterPrimaryDies commit multi-statement transactions",
	"internal/server.Txn.Execute":                 "test-driver API, since the wire protocol has no BEGIN: replica.TestSnapshotBootstrapAfterMultiInsertTxn, TestReplicationSoak and TestPromoteAfterPrimaryDies commit multi-statement transactions",
	"internal/server.Txn.Rollback":                "test-driver API, since the wire protocol has no BEGIN: abandons the transactions Session.Begin opens; server.TestTxnCommitRollbackVisibility and TestStampOrderReplayProperty roll back",
	"internal/storage.Table.NodeCount":            "accounting comparator of tpox.TestGenerateCounts, wal.TestRoundTripTPoX and xstats.TestCollectCounts",
	"internal/storage.Table.Programs":             "engine.TestUpdatedLeafScansByVersion and the root BenchmarkScanCompiled run the table's compiled scan cache",
	"internal/storage.Table.SizeBytes":            "accounting comparator of tpox.TestGenerateDeterministic and wal.TestRoundTripTPoX",
	"internal/storage.Table.Subscribe":            "server.TestStampOrderReplayProperty and TestApplierReorder record the publish order through the change feed",
	"internal/workload.New":                       "fixture of core.TestEmptyWorkloadRejected, TestMaintenanceCostSteersRecommendation and TestFrequencyScalesBenefit",
	"internal/xindex.Index.Walk":                  "content comparator of engine.TestPropertyDMLKeepsIndexesConsistent, TestInsertMaintainsIndexes and server.TestServeWhileTuneE2E",
	"internal/xmltree.Document.LabelPath":         "xindex.TestDeepDocumentNoStackOverflow checks deep labels with it",
	"internal/xmltree.MustParse":                  "document fixture of most packages' tests",
}

// TestEveryFunctionReachable holds the rule that shipped code has a
// shipped caller: every function declared in a non-test file is reached
// from a main, an init or a package-level var initializer of some
// binary in the tree (cmd/xixabench and examples/* included), or is on
// reachAllowlist with the reason a test needs it.
func TestEveryFunctionReachable(t *testing.T) {
	prog, err := newReachLoader(".").load()
	if err != nil {
		t.Fatal(err)
	}
	dead := map[string]bool{}
	for _, d := range prog.unreachable() {
		dead[d.name] = true
		if _, ok := reachAllowlist[d.name]; !ok {
			t.Errorf("%s: %s is reached from no binary: delete it, move it into a _test.go file, or allowlist it with the test that needs it", d.pos, d.name)
		}
	}
	declared := map[string]bool{}
	for _, rf := range prog.funcs {
		declared[rf.name] = true
	}
	for name, reason := range reachAllowlist {
		switch {
		case strings.TrimSpace(reason) == "":
			t.Errorf("allowlist entry %s has no reason", name)
		case !declared[name]:
			t.Errorf("allowlist entry %s names no function", name)
		case !dead[name]:
			t.Errorf("allowlist entry %s is reachable: drop it from the allowlist", name)
		}
	}
}

// TestReachabilitySelfTest runs the analysis over a small module that
// reaches methods through each indirect route the guard must follow,
// and expects only its one dead function back.
func TestReachabilitySelfTest(t *testing.T) {
	prog, err := newReachLoader(filepath.Join("testdata", "reachmod")).load()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range prog.unreachable() {
		got = append(got, d.name)
	}
	if want := []string{"dead"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}
}

// reachFunc is one function declaration: what its body references.
type reachFunc struct {
	name   string
	pos    token.Position
	calls  []*types.Func // functions and concrete methods
	ifaces []string      // method names called through an interface
}

type reachProg struct {
	funcs    map[*types.Func]*reachFunc
	byMethod map[string][]*types.Func // concrete methods by name
	roots    []*types.Func
	rootRefs reachFunc // references made by package-level var initializers
	// stdIface holds every method name an interface of a standard
	// package declares: the standard library may call any method of
	// that name on a module value, out of the analysis' sight.
	stdIface map[string]bool
}

type reachPkg struct {
	dir   string // relative to the loader's root
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// reachLoader type-checks the packages under root from source, each
// once (pkgs memoizes them, nil for a directory without Go files), and
// the standard library from export data.
type reachLoader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path -> directory relative to root
	pkgs  map[string]*reachPkg
	order []*reachPkg // type-checked packages, dependencies first
}

func newReachLoader(root string) *reachLoader {
	fset := token.NewFileSet()
	return &reachLoader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		dirs: map[string]string{},
		pkgs: map[string]*reachPkg{},
	}
}

// load finds every module under root (a nested go.mod starts a new
// one), type-checks each package in it and builds the reference graph.
func (l *reachLoader) load() (*reachProg, error) {
	modAt := map[string]string{} // directory of a go.mod -> module path
	err := filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, path)
		rel = filepath.ToSlash(rel)
		if mp, ok := readModulePath(filepath.Join(path, "go.mod")); ok {
			modAt[rel] = mp
			l.dirs[mp] = rel
			return nil
		}
		// The closest go.mod above the directory names its module.
		for up := rel; up != "."; {
			up = pathpkg.Dir(up)
			if mp, ok := modAt[up]; ok {
				l.dirs[mp+"/"+strings.TrimPrefix(rel, up+"/")] = rel
				return nil
			}
		}
		return fmt.Errorf("%s is in no module", path)
	})
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.dirs))
	for p := range l.dirs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.check(p); err != nil {
			return nil, err
		}
	}
	return l.graph(), nil
}

func readModulePath(gomod string) (string, bool) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", false
	}
	defer f.Close()
	s := bufio.NewScanner(f)
	for s.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(s.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), true
		}
	}
	return "", false
}

// Import resolves module packages from source and everything else
// through the standard importer.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirs[path]; ok {
		p, err := l.check(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("no Go files for %s", path)
		}
		return p.types, nil
	}
	return l.std.Import(path)
}

// check parses and type-checks the non-test files of one package, or
// returns nil for a directory without any.
func (l *reachLoader) check(path string) (*reachPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := l.dirs[path]
	bp, err := build.Default.ImportDir(filepath.Join(l.root, dir), 0)
	if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
		l.pkgs[path] = nil
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	p := &reachPkg{dir: dir, info: &types.Info{
		Uses: map[*ast.Ident]types.Object{},
		Defs: map[*ast.Ident]types.Object{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(l.root, dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// funcName is "<dir>.<Func>" or "<dir>.<Type>.<Method>"; a package at
// the root has no "<dir>." prefix.
func funcName(dir string, fn *types.Func) string {
	prefix := dir + "."
	if dir == "." {
		prefix = ""
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return prefix + named.Obj().Name() + "." + fn.Name()
		}
	}
	return prefix + fn.Name()
}

func isInterfaceMethod(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if _, ok := recv.Type().(*types.TypeParam); ok {
		return true
	}
	return types.IsInterface(recv.Type())
}

// collect records the functions and interface methods a subtree uses.
func collect(info *types.Info, n ast.Node, into *reachFunc) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		if isInterfaceMethod(fn) {
			into.ifaces = append(into.ifaces, fn.Name())
		} else {
			into.calls = append(into.calls, fn.Origin())
		}
		return true
	})
}

func (l *reachLoader) graph() *reachProg {
	prog := &reachProg{
		funcs:    map[*types.Func]*reachFunc{},
		byMethod: map[string][]*types.Func{},
		stdIface: map[string]bool{"Error": true}, // the universe's error
	}
	stdSeen := map[*types.Package]bool{}
	var walkStd func(*types.Package)
	walkStd = func(p *types.Package) {
		if stdSeen[p] {
			return
		}
		stdSeen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					prog.stdIface[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			walkStd(imp)
		}
	}
	for _, p := range l.order {
		for _, imp := range p.types.Imports() {
			if _, ok := l.dirs[imp.Path()]; !ok {
				walkStd(imp)
			}
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[d.Name].(*types.Func)
					rf := &reachFunc{name: funcName(p.dir, fn), pos: l.fset.Position(d.Pos())}
					if d.Body != nil {
						collect(p.info, d.Body, rf)
					}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						prog.roots = append(prog.roots, fn)
					}
					if d.Recv != nil {
						prog.byMethod[fn.Name()] = append(prog.byMethod[fn.Name()], fn)
					}
					prog.funcs[fn] = rf
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						collect(p.info, d, &prog.rootRefs)
					}
				}
			}
		}
	}
	return prog
}

// unreachable walks the graph from the roots and returns every declared
// function it did not reach, sorted by name.
func (prog *reachProg) unreachable() []*reachFunc {
	reached := map[*types.Func]bool{}
	ifaceDone := map[string]bool{}
	var queue []*types.Func
	visitIface := func(name string) {
		if ifaceDone[name] {
			return
		}
		ifaceDone[name] = true
		queue = append(queue, prog.byMethod[name]...)
	}
	visitRefs := func(rf *reachFunc) {
		queue = append(queue, rf.calls...)
		for _, name := range rf.ifaces {
			visitIface(name)
		}
	}
	queue = append(queue, prog.roots...)
	visitRefs(&prog.rootRefs)
	for name := range prog.stdIface {
		visitIface(name)
	}
	for len(queue) > 0 {
		fn := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if reached[fn] {
			continue
		}
		reached[fn] = true
		if rf := prog.funcs[fn]; rf != nil {
			visitRefs(rf)
		}
	}
	var dead []*reachFunc
	for fn, rf := range prog.funcs {
		if !reached[fn] {
			dead = append(dead, rf)
		}
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i].name < dead[j].name })
	return dead
}
