package renaissance_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
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
// state that is only ever written carries no traffic); every field that
// can hold a setting (a basic or func value, or a module struct made only
// of those) and that a non-test file reads must also be written by one
// (a setting only tests turn has one value in use, and wants to be a
// constant); or the declaration is listed in surfaceAllow with the reason
// it stays.
//
// A second walk over the same call graph leaves out the references made
// under benchmarks/: a function only the first walk reaches is code that
// only an rbench probe runs, and it must be listed in surfaceProbeOnly
// with the metric that times it.
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
// or a %v verb, which read (or, decoding, write) it by reflection. An
// entry that gains a caller, a reader or, for a setting, both a reader and
// a writer, or whose declaration is gone, fails the test so the list
// cannot rot.
var surfaceReasons = []string{"reference: ", "fault domain: ", "serialised: "}

var surfaceAllow = map[string]string{
	"rdd.RDD.ShuffleEpochs":      "fault domain: the recovery tests' observation point for exchange retries",
	"graphdb.Tx.Rollback":        "fault domain: abandons a transaction's staged writes",
	"chaos.SetRate":              "fault domain: how the rdd recovery and stm adversarial suites and core's harness-point test drive one injection point at rate 1 while the rest stay quiet",
	"chaos.Disable":              "fault domain: how those suites disarm the engine again so later tests run clean",
	"chaos.FireCount":            "fault domain: how those suites observe that their one point fired",
	"actors.System.RootFailures": "fault domain: TestQuiescenceWaitsForEscalation observes the top of a supervision tree through it",

	"graphdb.MatchRow.RelType": "reference: the differential suite compares Match's rows, relationship type included, against the map-and-sort oracle",
	"pca.Result.Eigenvalues":   "reference: the decomposition is checked against closed-form eigenvalues (1±r, trace = K) through it",
	"ck.ClassMetrics.Name":     "reference: ck_test looks a fixture type's row up by it to compare with the hand-computed CK values",

	"netstack.Server.Rejected": "fault domain: the admission tests observe the server's overload verdicts through it",
	"netstack.Client.Rejected": "fault domain: the admission tests observe the calls admission control turned away through it",
	"forkjoin.TaskError.Stack": "fault domain: the stack captured where a task panicked, kept for whoever handles the error",
	"graphdb.Graph.Commits":    "fault domain: how the rollback and concurrent-writer tests observe which transactions committed",
	"graphdb.edge.Props":       "fault domain: TestPropsSnapshotAtStage observes that a staged relationship is isolated from later caller writes",
	"stm.Tx.Extensions":        "fault domain: the timestamp-extension tests observe that a read revalidated instead of aborting",

	"netstack.Server.DrainTimeout":   "fault domain: TestServerCloseWedgedService shrinks the drain deadline so a wedged handler trips it in milliseconds",
	"netstack.Client.Timeout":        "fault domain: TestClientPerCallDeadline sets the per-call deadline a silent service must trip",
	"loadgen.Options.MaxOutstanding": "fault domain: TestMaxOutstandingDropsAreCounted shrinks the outstanding-request valve until a wedged target makes it drop",
	"rvm.Interp.Fuel":                "fault domain: TestFuelExhaustion and the tier differential fuzzers give a runaway loop a budget small enough to exhaust",
	"rvm.Interp.MaxDepth":            "fault domain: FuzzCompile lowers the call-depth limit so its runaway-recursion seeds trap quickly on both tiers",
	"ir.Exec.Fuel":                   "fault domain: TestExecFuel and FuzzVerify give the IR executor a fuel budget small enough to exhaust",

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
	"classic.xmlItem.ID":            "serialised: encoding/xml writes it by reflection when the xml workloads decode",
	"fn.boundRecord.Name":           "serialised: scalaxb's binding-failure message prints the record with %+v",
}

// surfaceProbeDir holds the benchmark's probes. Code that only they reach
// times something no workload runs, so it is listed in surfaceProbeOnly
// until the probes and the code go together.
const surfaceProbeDir = "benchmarks/"

// surfaceBenchmarkFile declares the benchmark's metrics; every
// surfaceProbeOnly entry names one of its per-layer metrics.
const surfaceBenchmarkFile = "BENCHMARK.json"

// surfaceProbeOnly is the ledger of the functions that only rbench under
// benchmarks/ reaches, each with the per-layer metric whose measurement
// runs it (the metric name, then optionally ": " and a note). It is the
// deletion list of the change that drops those probes. An entry that gains
// a non-probe caller, or whose declaration is gone, fails the test so the
// ledger cannot rot.
var surfaceProbeOnly = map[string]string{
	"rdd.Parallelize":         "rdd.narrow_ns_per_elem",
	"rdd.Map":                 "rdd.narrow_ns_per_elem",
	"rdd.RDD.Filter":          "rdd.narrow_ns_per_elem",
	"rdd.RDD.Count":           "rdd.narrow_ns_per_elem",
	"rdd.RDD.run":             "rdd.narrow_ns_per_elem",
	"rdd.runParts":            "rdd.job_us",
	"rdd.RDD.Cache":           "rdd.cached_ns_per_elem",
	"rdd.RDD.cachedPartition": "rdd.cached_ns_per_elem",
	"rdd.RDD.materialize":     "rdd.cached_ns_per_elem",
	"rdd.Aggregate":           "rdd.cached_ns_per_elem",
	"rdd.ReduceByKey":         "rdd.shuffle_ns_per_elem",
	"rdd.shuffle":             "rdd.shuffle_ns_per_elem",
	"rdd.shuffleLimit":        "rdd.shuffle_ns_per_elem",
	"rdd.hashKey":             "rdd.shuffle_ns_per_elem",
	"rdd.stagingPoolFor":      "rdd.shuffle_ns_per_elem",
	"rdd.getStagingRow":       "rdd.shuffle_ns_per_elem",
	"rdd.putStagingRow":       "rdd.shuffle_ns_per_elem",
	"rdd.exchange.ensure":     "rdd.shuffle_ns_per_elem",

	"streams.ParMap":          "streams.parmap_ns_per_elem",
	"streams.parallelWorkers": "streams.parmap_ns_per_elem",

	"rx.NewScheduler":            "rx.observeon_ns_per_elem",
	"rx.Scheduler.Schedule":      "rx.observeon_ns_per_elem",
	"rx.Scheduler.loop":          "rx.observeon_ns_per_elem",
	"rx.Scheduler.Close":         "rx.observeon_ns_per_elem",
	"rx.ObserveOn":               "rx.observeon_ns_per_elem",
	"rx.Range":                   "rx.pipeline_ns_per_elem",
	"rx.Observable.BlockingLast": "rx.pipeline_ns_per_elem",

	"lin.Gemv":    "lin.gemv_ns_per_elem",
	"lin.Syr":     "lin.syr_ns_per_elem",
	"lin.Syrk":    "lin.cholesky_us",
	"lin.Mat.Set": "lin.cholesky_us",
	"lin.Mat.At":  "lin.cholesky_us",

	"graphdb.Graph.Neighbors": "graphdb.traverse_ns_per_edge",
	"graphdb.countType":       "graphdb.traverse_ns_per_edge",
	"graphdb.appendPeers":     "graphdb.traverse_ns_per_edge",
	"graphdb.Graph.NodeCount": "graphdb.tx_commit_us",

	"actors.Context.Spawn":          "actors.spawn_ns",
	"actors.System.DeadLetterCount": "actors.spawn_ns",
	"mpsc.New":                      "mpsc.enq_deq_ns",
	"loadgen.RunClosed":             "netstack.closed_rps",
	"metrics.Recorder.Get":          "stm.abort_ratio",

	"stats.Percentile":       "round_p75_ms: the driver's own summary, not a probe",
	"metrics.Metric.Counted": "trace.overhead_pct: the traced run keeps only counted metrics on its op spans",
}

// surfaceProbeMetrics reads the per-layer metric names of BENCHMARK.json.
func surfaceProbeMetrics() (map[string]bool, error) {
	raw, err := os.ReadFile(surfaceBenchmarkFile)
	if err != nil {
		return nil, err
	}
	var decl struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for _, m := range decl.PerLayer {
		names[m.Name] = true
	}
	return names, nil
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
	name    string // the allowlist key: pkg.Var, pkg.Const or pkg.Type.field
	pos     token.Pos
	read    bool
	setting bool // a field of a type settingType accepts
	written bool
}

// settingType reports whether a field of type t holds a setting: a basic
// or func value, or a module struct whose fields are all of those. Arrays,
// maps, slices, pointers, interfaces and the sync types change through
// their elements or methods, so whether they are written is not visible
// in the syntax the guard reads.
func settingType(t types.Type, nested bool) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic, *types.Signature:
		return true
	case *types.Struct:
		if n, ok := t.(*types.Named); ok && !strings.HasPrefix(n.Obj().Pkg().Path(), surfaceModule+"/") {
			return false // time.Time, sync.Mutex, atomic.Int64: changed through methods
		}
		if nested || u.NumFields() == 0 {
			return false
		}
		for i := range u.NumFields() {
			if !settingType(u.Field(i).Type(), true) {
				return false
			}
		}
		return true
	}
	return false
}

// surfaceData lists the data declared under internal/ and marks what some
// non-test file reads, and which fields some non-test file writes. A use
// of the name is a write when it is the target of an assignment (plain,
// op= or ++/--), a composite-literal key, or the receiver of an atomic Add
// or Store whose result is discarded; every other use is a read, and so is
// a comparison: the fields of a struct that is a map's key type or an
// operand of == or != are read by it. A field is written by an assignment
// to it or through it (x.F.G = v writes F and G), by a composite literal,
// keyed or positional, or by an atomic Add or Store. Embedded fields are
// not listed: what they promote is behaviour, which the function half of
// the guard sees.
func (l *surfaceLoader) surfaceData() []*surfaceDatum {
	var data []*surfaceDatum
	byObj := map[types.Object]*surfaceDatum{}
	declare := func(id *ast.Ident, prefix string) {
		obj := l.info.Defs[id]
		if id.Name == "_" || obj == nil || !strings.HasPrefix(obj.Pkg().Path(), surfacePrefix) {
			return
		}
		d := &surfaceDatum{name: obj.Pkg().Name() + "." + prefix + id.Name, pos: id.Pos()}
		if v, ok := obj.(*types.Var); ok && v.IsField() {
			d.setting = settingType(v.Type(), false)
		}
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
	written := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok {
			obj = v.Origin()
		}
		if d := byObj[obj]; d != nil {
			d.written = true
		}
	}
	target := func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			writes[e] = true
		case *ast.SelectorExpr:
			writes[e.Sel] = true
		}
		for {
			switch x := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				written(l.info.Uses[x.Sel])
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			}
			break
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
			case *ast.CompositeLit:
				st, ok := l.info.TypeOf(n).Underlying().(*types.Struct)
				if !ok || len(n.Elts) == 0 {
					break
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
					for i := range st.NumFields() {
						written(st.Field(i))
					}
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := l.info.Uses[id].(*types.Var); ok && v.IsField() {
						writes[id] = true
						written(v)
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
	// being an interface's dispatch target. The references made under
	// benchmarks/ are kept apart as probeRoots for the probe-only pass.
	roots, err := l.surfaceDispatch()
	if err != nil {
		t.Fatal(err)
	}
	var probeRoots []*types.Func
	calls := map[*types.Func][]*types.Func{}
	var declared []*types.Func
	for _, file := range l.files {
		probe := strings.HasPrefix(filepath.ToSlash(l.fset.Position(file.Pos()).Filename), surfaceProbeDir)
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
				if fn = fn.Origin(); owner == nil && probe {
					probeRoots = append(probeRoots, fn)
				} else if owner == nil {
					roots = append(roots, fn)
				} else if fn != owner {
					calls[owner] = append(calls[owner], fn)
				}
				return true
			})
		}
	}
	reach := func(reached map[*types.Func]bool, from []*types.Func) {
		work := slices.Clone(from)
		for len(work) > 0 {
			fn := work[len(work)-1]
			work = work[:len(work)-1]
			if !reached[fn] {
				reached[fn] = true
				work = append(work, calls[fn]...)
			}
		}
	}
	reached := map[*types.Func]bool{}
	reach(reached, roots)
	reach(reached, probeRoots)

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
	reach(reached, kept)
	for _, fn := range declared {
		if !reached[fn] {
			findings = append(findings, fmt.Sprintf("%s (%s): no non-test caller",
				surfaceName(fn), l.fset.Position(fn.Pos())))
		}
	}

	// The probe-only pass: the same walk without the probes' references.
	// What only the first walk reaches is code no workload, CLI or example
	// runs, and surfaceProbeOnly must name it with the probe metric that
	// times it.
	outside := map[*types.Func]bool{}
	reach(outside, roots)
	reach(outside, kept)
	probeMetrics, err := surfaceProbeMetrics()
	if err != nil {
		t.Fatal(err)
	}
	ledgered := map[string]bool{}
	for _, fn := range declared {
		name := surfaceName(fn)
		metric, listed := surfaceProbeOnly[name]
		if listed {
			ledgered[name] = true
			if m, _, _ := strings.Cut(metric, ": "); !probeMetrics[m] {
				findings = append(findings, fmt.Sprintf("%s: surfaceProbeOnly names %q, not a per-layer metric of %s", name, metric, surfaceBenchmarkFile))
			}
		}
		switch {
		case reached[fn] && !outside[fn] && !listed:
			findings = append(findings, fmt.Sprintf("%s (%s): only a probe under %s reaches it; list it in surfaceProbeOnly with the probe metric that runs it",
				name, l.fset.Position(fn.Pos()), surfaceProbeDir))
		case listed && outside[fn]:
			findings = append(findings, name+": in surfaceProbeOnly but has a non-probe caller; drop the entry")
		}
	}
	for name := range surfaceProbeOnly {
		if !ledgered[name] {
			findings = append(findings, name+": in surfaceProbeOnly but not declared")
		}
	}
	for _, d := range l.surfaceData() {
		switch {
		case !d.read:
			if !allow(d.name, false, "") {
				findings = append(findings, fmt.Sprintf("%s (%s): no non-test reader",
					d.name, l.fset.Position(d.pos)))
			}
		case d.setting && !d.written:
			if !allow(d.name, false, "") {
				findings = append(findings, fmt.Sprintf("%s (%s): no non-test writer: a setting only tests turn",
					d.name, l.fset.Position(d.pos)))
			}
		case d.setting:
			allow(d.name, true, "reader and writer")
		default:
			allow(d.name, true, "reader")
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
