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
	"slices"
	"sort"
	"strings"
	"testing"
)

// The packages under internal/ exist to carry the workloads' traffic, so
// what they declare is held to what something actually runs. Every
// function and method declared under internal/ must be reachable from a
// non-test file outside its own body (a workload's registration, a CLI, an
// example, an rbench probe), or be a method some interface can dispatch
// to (surfaceDispatch); every struct field, package-level variable and
// constant declared there must be read by a non-test file (surfaceData:
// state that is only ever written carries no traffic); or the declaration
// is listed in surfaceAllow with the reason it stays.
//
// What the data half cannot see is state whose only readers are its own
// upkeep: a map that is looked up only to decide how to insert into it
// counts as read. The actor name registry was exactly that.
const surfacePrefix = surfaceModule + "/internal/"

func inSurface(fn *types.Func) bool {
	return fn.Pkg() != nil && strings.HasPrefix(fn.Pkg().Path(), surfacePrefix)
}

// surfaceStdIfaces are the standard-library packages whose interfaces
// reach into the module by dynamic dispatch; error and the Unwrap shape
// errors.Is/As look for are added beside them.
var surfaceStdIfaces = []string{"fmt", "sort", "container/heap", "flag", "io", "encoding/json"}

// surfaceAllow names the declarations no non-test file calls or reads that
// stay anyway, each for one of three reasons: it is (or is the point of
// comparison of) a reference a differential or hand-computed test checks
// against; it is the control or observation point of a fault domain that
// a retained adversarial or regression test cannot do without; or it is a
// field that leaves the program only through encoding/json, encoding/xml
// or a %v verb, which read it by reflection. An entry that gains a caller
// or reader, or whose declaration is gone, fails the test so the list
// cannot rot.
var surfaceReasons = []string{"reference: ", "fault domain: ", "serialised: "}

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

	"graphdb.MatchRow.RelType": "reference: the differential suite compares Match's rows, relationship type included, against the map-and-sort oracle",
	"pca.Result.Eigenvalues":   "reference: the decomposition is checked against closed-form eigenvalues (1±r, trace = K) through it",
	"stats.TTestResult.T":      "reference: the hand-computed Welch case pins the statistic, not only the p-value derived from it",
	"stats.TTestResult.DF":     "reference: the hand-computed Welch case pins the Welch–Satterthwaite degrees of freedom",
	"ck.ClassMetrics.Name":     "reference: ck_test looks a fixture type's row up by it to compare with the hand-computed CK values",

	"actors.System.Steals":     "fault domain: TestStealAcrossWorkers observes that work does not stay pinned to one worker",
	"netstack.Server.Rejected": "fault domain: the admission tests observe the server's overload verdicts through it",
	"netstack.Client.Rejected": "fault domain: the admission and retry tests observe rejected attempts, retried or not",
	"forkjoin.TaskError.Stack": "fault domain: the stack captured where a task panicked, kept for whoever handles the error",
	"futures.PanicError.Stack": "fault domain: the stack captured where a stage panicked, kept for whoever handles the error",
	"graphdb.Graph.Commits":    "fault domain: how the rollback and concurrent-writer tests observe which transactions committed",
	"graphdb.edge.Props":       "fault domain: TestPropsSnapshotAtStage observes that a staged relationship is isolated from later caller writes",
	"stm.Tx.Extensions":        "fault domain: the timestamp-extension tests observe that a read revalidated instead of aborting",

	"core.Result.Benchmark":         "serialised: WriteJSON",
	"core.Result.Suite":             "serialised: WriteJSON",
	"core.Result.Warmup":            "serialised: WriteJSON",
	"core.Result.Latency":           "serialised: WriteJSON",
	"core.LatencySummary.Count":     "serialised: Result.Latency and the CLI's open-loop points, both JSON",
	"core.LatencySummary.MinMillis": "serialised: Result.Latency and the CLI's open-loop points, both JSON",
	"core.LatencySummary.MaxMillis": "serialised: Result.Latency and the CLI's open-loop points, both JSON",
	"metrics.Profile.Elapsed":       "serialised: Result.Profile in WriteJSON",
	"classic.record.Name":           "serialised: the serial workload's JSON round trip",
	"classic.record.Tags":           "serialised: the serial workload's JSON round trip",
	"classic.record.Attrs":          "serialised: the serial workload's JSON round trip",
	"classic.record.Children":       "serialised: the serial workload's JSON round trip",
	"classic.xmlDoc.XMLName":        "serialised: names the xml workloads' root element",
	"classic.xmlItem.Name":          "serialised: the xml workloads' round trip (xml.transform checks it survived)",
	"fn.boundRecord.Name":           "serialised: scalaxb's binding-failure message prints the record with %+v",
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

// surfaceDatum is one struct field, package-level variable or constant
// declared under internal/.
type surfaceDatum struct {
	name string // the allowlist key: pkg.Var, pkg.Const or pkg.Type.field
	pos  token.Pos
	read bool
}

// surfaceData lists the data declared under internal/ and marks what some
// non-test file reads. A use of the name is a write when it is the target
// of an assignment (plain, op= or ++/--), a composite-literal key, or the
// receiver of an atomic Add or Store whose result is discarded; every
// other use is a read, and so is a comparison: the fields of a struct that
// is a map's key type or an operand of == or != are read by it. Embedded
// fields are not listed: what they promote is behaviour, which the
// function half of the guard sees.
func (l *surfaceLoader) surfaceData() []*surfaceDatum {
	var data []*surfaceDatum
	byObj := map[types.Object]*surfaceDatum{}
	declare := func(id *ast.Ident, prefix string) {
		obj := l.info.Defs[id]
		if id.Name == "_" || obj == nil || !strings.HasPrefix(obj.Pkg().Path(), surfacePrefix) {
			return
		}
		d := &surfaceDatum{name: obj.Pkg().Name() + "." + prefix + id.Name, pos: id.Pos()}
		byObj[obj] = d
		data = append(data, d)
	}
	var fields func(prefix string, n ast.Node)
	fields = func(prefix string, n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				fields(n.Name.Name+".", n.Type)
				return false
			case *ast.StructType:
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						declare(id, prefix)
						fields(prefix+id.Name+".", f.Type)
					}
				}
				return false
			}
			return true
		})
	}
	var compared func(t types.Type)
	compared = func(t types.Type) {
		switch t := t.Underlying().(type) {
		case *types.Array:
			compared(t.Elem())
		case *types.Struct:
			for i := range t.NumFields() {
				if d := byObj[t.Field(i).Origin()]; d != nil {
					d.read = true
				}
				compared(t.Field(i).Type())
			}
		}
	}
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			writes[e] = true
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		}
	}
	for _, file := range l.files {
		for _, decl := range file.Decls {
			if gd, ok := decl.(*ast.GenDecl); ok && (gd.Tok == token.VAR || gd.Tok == token.CONST) {
				for _, spec := range gd.Specs {
					for _, id := range spec.(*ast.ValueSpec).Names {
						declare(id, "")
					}
				}
			}
			fields("struct.", decl)
		}
	}
	for _, file := range l.files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(n.X)
			case *ast.MapType:
				compared(l.info.TypeOf(n.Key))
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					compared(l.info.TypeOf(n.X))
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
						writes[id] = true
					}
				}
			case *ast.ExprStmt:
				call, _ := n.X.(*ast.CallExpr)
				if call == nil {
					break
				}
				sel, _ := call.Fun.(*ast.SelectorExpr)
				if sel == nil || sel.Sel.Name != "Add" && sel.Sel.Name != "Store" {
					break
				}
				if fn, ok := l.info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
					target(sel.X)
				}
			}
			return true
		})
	}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok {
			obj = v.Origin() // a generic type's field, whatever the instantiation
		}
		if d := byObj[obj]; d != nil && !writes[id] {
			d.read = true
		}
	}
	return data
}

func TestSubstrateSurfaceHasTraffic(t *testing.T) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
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
	allow := func(name string, live bool, user string) bool {
		reason, ok := surfaceAllow[name]
		if !ok {
			return false
		}
		allowed[name] = true
		if !slices.ContainsFunc(surfaceReasons, func(r string) bool { return strings.HasPrefix(reason, r) }) {
			findings = append(findings, name+": allowlisted without one of the three reasons")
		}
		if live {
			findings = append(findings, name+": allowlisted but has a non-test "+user+"; drop the entry")
		}
		return true
	}
	for _, fn := range declared {
		if allow(surfaceName(fn), reached[fn], "caller") {
			kept = append(kept, fn)
		}
	}
	reach(kept)
	for _, fn := range declared {
		if !reached[fn] {
			findings = append(findings, fmt.Sprintf("%s (%s): no non-test caller",
				surfaceName(fn), l.fset.Position(fn.Pos())))
		}
	}
	for _, d := range l.surfaceData() {
		if !allow(d.name, d.read, "reader") && !d.read {
			findings = append(findings, fmt.Sprintf("%s (%s): no non-test reader",
				d.name, l.fset.Position(d.pos)))
		}
	}
	for name := range surfaceAllow {
		if !allowed[name] {
			findings = append(findings, name+": allowlisted but not declared")
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Error(f)
	}
}
