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

// The substrate packages exist to carry the workloads' traffic, so their
// surface is held to what something actually calls: a function or method
// of one of these packages must be reachable from a non-test file outside
// them (a workload, a CLI, an example, an rbench probe) or be listed in
// surfaceAllow with the reason it stays.
var surfacePkgs = map[string]bool{
	"renaissance/internal/rdd":      true,
	"renaissance/internal/streams":  true,
	"renaissance/internal/rx":       true,
	"renaissance/internal/futures":  true,
	"renaissance/internal/graphdb":  true,
	"renaissance/internal/forkjoin": true,
}

// surfaceAllow names the functions no non-test caller reaches that stay
// anyway. Every entry states why; an entry that gains a caller, or whose
// function is gone, fails the test so the list cannot rot.
var surfaceAllow = map[string]string{
	"forkjoin.TaskError.Error":  "interface method: error",
	"forkjoin.TaskError.Unwrap": "interface method: errors.Is/As",
	"futures.PanicError.Error":  "interface method: error",
	"futures.PanicError.Unwrap": "interface method: errors.Is/As",

	"rdd.GroupByKey":        "seedml oracle: seedml_test.go's reference kernels are built on it",
	"rdd.FlatMap":           "seedml oracle: seedml_test.go's reference kernels are built on it",
	"rdd.SolveLinearSystem": "seedml oracle: pivoted elimination the Cholesky kernels are compared against",
	"rdd.ALS":               "seedml oracle: the differential tests drive both ALS implementations through this signature",
	"rdd.parMapSlice":       "seedml oracle: the seed kernels' parallel map, kept verbatim",
	"rdd.newMatrix":         "seedml oracle: the seed kernels' slice-of-slices matrix",
	"rdd.randomVector":      "seedml oracle: the seed ALS's factor initialisation",

	"forkjoin.Task.Err":     "fault surface: how a submitter observes a task's panic without re-raising it",
	"rdd.RDD.ShuffleEpochs": "fault surface: the recovery tests' observation point for exchange retries",
	"graphdb.Tx.Rollback":   "fault surface: abandons a transaction's staged writes",
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
	// reference from anywhere else (a workload, a probe, an init, a
	// package-level initialiser) makes its target live outright.
	calls := map[*types.Func][]*types.Func{}
	var declared, roots []*types.Func
	for _, file := range l.files {
		for _, decl := range file.Decls {
			var owner *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok && (fd.Recv != nil || fd.Name.Name != "init") {
				if fn := l.info.Defs[fd.Name].(*types.Func); surfacePkgs[fn.Pkg().Path()] {
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
				if !ok || fn.Pkg() == nil || !surfacePkgs[fn.Pkg().Path()] {
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
		if reason == "" {
			findings = append(findings, name+": allowlisted without a reason")
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
