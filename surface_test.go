package renaissance_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The packages under internal/ exist to carry the workloads' traffic, so
// their surface is held to what something actually runs: every function
// and method declared under internal/ must be reachable from a non-test
// file outside its own body (a workload's registration, a CLI, an
// example, an rbench probe), or be a method some interface can dispatch
// to (surfaceDispatch), or be listed in surfaceAllow with the reason it
// stays.
const surfacePrefix = surfaceModule + "/internal/"

func inSurface(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), surfacePrefix)
}

// surfaceStdIfaces are the standard-library packages whose interfaces
// reach into the module by dynamic dispatch; error and the Unwrap shape
// errors.Is/As look for are added beside them.
var surfaceStdIfaces = []string{"fmt", "sort", "container/heap", "flag", "io", "encoding/json"}

// surfaceAllow names the functions no non-test caller reaches that stay
// anyway, each for one of two reasons: it is a reference implementation a
// differential test compares against, or it is the control or observation
// point of a fault domain that a retained adversarial or regression test
// cannot do without. An entry that gains a caller, or whose function is
// gone, fails the test so the list cannot rot.
var surfaceAllow = map[string]string{
	"rdd.GroupByKey":        "reference: seedml_test.go's seed kernels are built on it",
	"rdd.FlatMap":           "reference: seedml_test.go's seed kernels are built on it",
	"rdd.SolveLinearSystem": "reference: pivoted elimination the Cholesky kernels are compared against",
	"rdd.ALS":               "reference: the differential tests drive both ALS implementations through this signature",
	"rdd.parMapSlice":       "reference: the seed kernels' parallel map, kept verbatim",
	"rdd.newMatrix":         "reference: the seed kernels' slice-of-slices matrix",
	"rdd.randomVector":      "reference: the seed ALS's factor initialisation",

	"forkjoin.Task.Err":           "fault domain: how a submitter observes a task's panic without re-raising it",
	"rdd.RDD.ShuffleEpochs":       "fault domain: the recovery tests' observation point for exchange retries",
	"graphdb.Tx.Rollback":         "fault domain: abandons a transaction's staged writes",
	"chaos.SetRate":               "fault domain: how the rdd recovery and stm adversarial suites drive one injection point at rate 1 while the rest stay quiet",
	"chaos.Disable":               "fault domain: how those suites disarm the engine again so later tests run clean",
	"chaos.FireCount":             "fault domain: how those suites observe that their one point fired",
	"actors.System.RootFailures":  "fault domain: TestQuiescenceWaitsForEscalation observes the top of a supervision tree through it",
	"core.FaultInjector.Injected": "fault domain: how the harness fault tests observe that an armed fault fired, or did not",
}

// surfaceLoader type-checks the module's packages from source, sharing
// one types.Info so an object means the same thing in every package.
type surfaceLoader struct {
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	info  *types.Info
}

const surfaceModule = "renaissance"

// Import resolves module-local paths to directories under the root, where
// the test runs (the nested benchmarks module's path,
// renaissance/benchmarks, maps onto its directory the same way), and
// leaves the rest to the source importer.
func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	if path != surfaceModule && !strings.HasPrefix(path, surfaceModule+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(".", strings.TrimPrefix(path, surfaceModule))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	l.files = append(l.files, files...)
	return p, nil
}

// surfaceName is the allowlist key: pkg.Func or pkg.Type.Method.
func surfaceName(fn *types.Func) string {
	name := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name += n.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// surfaceDispatch returns the methods an interface value can reach: for
// every named type of the module, the method (its own or one promoted
// from an embedded field) behind each method name of every interface the
// type's pointer implements. The interfaces are the module's own
// plus those of surfaceStdIfaces, error and Unwrap.
func (l *surfaceLoader) surfaceDispatch() ([]*types.Func, error) {
	errType := types.Universe.Lookup("error").Type()
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewVar(token.NoPos, nil, "", errType)), false))
	ifaces := []*types.Interface{
		errType.Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	var named []*types.Named
	collect := func(pkg *types.Package, local bool) {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			} else if n, ok := tn.Type().(*types.Named); ok && local {
				named = append(named, n)
			}
		}
	}
	for _, path := range surfaceStdIfaces {
		pkg, err := l.std.Import(path)
		if err != nil {
			return nil, err
		}
		collect(pkg, false)
	}
	for _, pkg := range l.pkgs {
		collect(pkg, true)
	}
	var live []*types.Func
	for _, n := range named {
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !types.Implements(ptr, it) { // *T's method set includes T's
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name())
				if fn, ok := obj.(*types.Func); ok && inSurface(fn) {
					live = append(live, fn.Origin())
				}
			}
		}
	}
	return live, nil
}

func TestSubstrateSurfaceHasTraffic(t *testing.T) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name[0] == '.' || name[0] == '_' || name == "testdata") {
			return filepath.SkipDir
		}
		_, err = l.Import(filepath.ToSlash(filepath.Join(surfaceModule, path)))
		if noGo := (*build.NoGoError)(nil); errors.As(err, &noGo) {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// calls[f] lists the surface functions f's body references; a
	// reference from anywhere else (a CLI, a probe, an init, a
	// package-level initialiser) makes its target live outright, as does
	// being an interface's dispatch target.
	roots, err := l.surfaceDispatch()
	if err != nil {
		t.Fatal(err)
	}
	calls := map[*types.Func][]*types.Func{}
	var declared []*types.Func
	for _, file := range l.files {
		for _, decl := range file.Decls {
			var owner *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Recv != nil || fd.Name.Name != "init") {
				if fn := l.info.Defs[fd.Name].(*types.Func); inSurface(fn) {
					owner = fn
					declared = append(declared, fn)
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := l.info.Uses[id].(*types.Func)
				if !ok || !inSurface(fn) {
					return true
				}
				if fn = fn.Origin(); owner == nil {
					roots = append(roots, fn)
				} else if fn != owner {
					calls[owner] = append(calls[owner], fn)
				}
				return true
			})
		}
	}
	reached := map[*types.Func]bool{}
	reach := func(work []*types.Func) { // consumes work
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			if !reached[fn] {
				reached[fn] = true
				work = append(work, calls[fn]...)
			}
		}
	}
	reach(roots)

	var findings []string
	var kept []*types.Func
	allowed := map[string]bool{}
	for _, fn := range declared {
		name := surfaceName(fn)
		reason, ok := surfaceAllow[name]
		if !ok {
			continue
		}
		allowed[name] = true
		if !strings.HasPrefix(reason, "reference: ") && !strings.HasPrefix(reason, "fault domain: ") {
			findings = append(findings, name+": allowlisted without one of the two reasons")
		}
		if reached[fn] {
			findings = append(findings, name+": allowlisted but has a non-test caller; drop the entry")
		}
		kept = append(kept, fn)
	}
	for name := range surfaceAllow {
		if !allowed[name] {
			findings = append(findings, name+": allowlisted but not declared")
		}
	}
	reach(kept)
	for _, fn := range declared {
		if !reached[fn] {
			findings = append(findings, fmt.Sprintf("%s (%s): no non-test caller",
				surfaceName(fn), l.fset.Position(fn.Pos())))
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}
