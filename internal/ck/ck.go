// Package ck computes the six Chidamber–Kemerer object-oriented design
// metrics (WMC, DIT, NOC, CBO, RFC, LCOM) that the paper's §7.1 uses to
// compare suite complexity. The paper runs ckjm over the classes a JVM
// benchmark loads; here the metrics are computed over Go source with
// go/ast: named struct/interface types play the role of classes, methods
// with receivers are class methods, and struct embedding plays the role of
// inheritance (embedding is Go's mechanism for implementation reuse, so
// DIT/NOC measure the same reuse-depth notion).
package ck

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"sort"
	"strings"
)

// ClassMetrics holds the six CK metrics of one type.
type ClassMetrics struct {
	Name string
	WMC  int // weighted methods per class (method count)
	DIT  int // depth of the "inheritance" (embedding) tree
	NOC  int // number of children (types embedding this one)
	CBO  int // coupling: distinct analyzed types referenced
	RFC  int // response: methods + distinct calls they make
	LCOM int // lack of cohesion: method pairs sharing no field
}

// Report is the analysis result over a set of packages.
type Report struct {
	Classes []ClassMetrics
	// TypeCount is the number of analyzed types ("loaded classes").
	TypeCount int
}

// classInfo is the intermediate per-type record.
type classInfo struct {
	name       string
	pkg        string
	fields     map[string]bool // named fields
	embedded   []string        // embedded type names
	fieldTypes []ast.Expr      // field type expressions (coupling edges)
	methods    []*ast.FuncDecl
}

// AnalyzeDirs parses the given directories (non-recursively) and computes
// CK metrics over all named struct and interface types found. Test files
// are left out: the paper counts the classes a benchmark loads, and a
// type only a _test.go file declares is never loaded by a run.
func AnalyzeDirs(dirs []string) (*Report, error) {
	classes := map[string]*classInfo{}
	fset := token.NewFileSet()
	notTest := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }

	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, notTest, 0)
		if err != nil {
			return nil, fmt.Errorf("ck: parsing %s: %w", dir, err)
		}
		for pkgName, pkg := range pkgs {
			for _, file := range pkg.Files {
				collectTypes(file, pkgName, classes)
			}
		}
		// Second pass for methods (receivers may precede type decls).
		for pkgName, pkg := range pkgs {
			for _, file := range pkg.Files {
				collectMethods(file, pkgName, classes)
			}
		}
	}
	return buildReport(classes), nil
}

func collectTypes(file *ast.File, pkg string, classes map[string]*classInfo) {
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			ci := &classInfo{name: ts.Name.Name, pkg: pkg, fields: map[string]bool{}}
			switch t := ts.Type.(type) {
			case *ast.StructType:
				for _, f := range t.Fields.List {
					ci.fieldTypes = append(ci.fieldTypes, f.Type)
					if len(f.Names) == 0 {
						// Embedded field: record the base type name.
						if name := baseTypeName(f.Type); name != "" {
							ci.embedded = append(ci.embedded, name)
						}
						continue
					}
					for _, n := range f.Names {
						ci.fields[n.Name] = true
					}
				}
			case *ast.InterfaceType:
				for _, m := range t.Methods.List {
					if len(m.Names) == 0 {
						if name := baseTypeName(m.Type); name != "" {
							ci.embedded = append(ci.embedded, name)
						}
					}
				}
			default:
				// Named basic/slice/map types can still carry methods.
			}
			classes[ci.name] = ci
		}
	}
}

func collectMethods(file *ast.File, pkg string, classes map[string]*classInfo) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 {
			continue
		}
		recv := baseTypeName(fd.Recv.List[0].Type)
		if ci, ok := classes[recv]; ok && ci.pkg == pkg {
			ci.methods = append(ci.methods, fd)
		}
	}
}

// baseTypeName unwraps pointers/generics/selectors to the base identifier.
func baseTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return baseTypeName(t.X)
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.IndexExpr:
		return baseTypeName(t.X)
	case *ast.IndexListExpr:
		return baseTypeName(t.X)
	}
	return ""
}

func buildReport(classes map[string]*classInfo) *Report {
	// NOC: reverse embedding edges.
	children := map[string]int{}
	for _, ci := range classes {
		for _, e := range ci.embedded {
			if _, ok := classes[e]; ok {
				children[e]++
			}
		}
	}

	// DIT with memoization (cycle-guarded).
	ditMemo := map[string]int{}
	var dit func(name string, seen map[string]bool) int
	dit = func(name string, seen map[string]bool) int {
		if d, ok := ditMemo[name]; ok {
			return d
		}
		if seen[name] {
			return 0
		}
		seen[name] = true
		ci, ok := classes[name]
		if !ok {
			return 0
		}
		max := 0
		for _, e := range ci.embedded {
			if _, ok := classes[e]; !ok {
				continue
			}
			if d := dit(e, seen) + 1; d > max {
				max = d
			}
		}
		ditMemo[name] = max
		return max
	}

	rep := &Report{TypeCount: len(classes)}
	names := make([]string, 0, len(classes))
	for n := range classes {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		ci := classes[name]
		m := ClassMetrics{Name: name, WMC: len(ci.methods)}
		m.DIT = dit(name, map[string]bool{})
		m.NOC = children[name]
		m.CBO = coupling(ci, classes)
		m.RFC = response(ci)
		m.LCOM = cohesion(ci)
		rep.Classes = append(rep.Classes, m)
	}
	return rep
}

// coupling counts distinct analyzed types referenced by the class's fields
// and methods.
func coupling(ci *classInfo, classes map[string]*classInfo) int {
	refs := map[string]bool{}
	see := func(name string) {
		if name != "" && name != ci.name {
			if _, ok := classes[name]; ok {
				refs[name] = true
			}
		}
	}
	for _, e := range ci.embedded {
		see(e)
	}
	for _, ft := range ci.fieldTypes {
		ast.Inspect(ft, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				see(id.Name)
			}
			return true
		})
	}
	for _, fd := range ci.methods {
		ast.Inspect(fd, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				see(id.Name)
			}
			return true
		})
	}
	return len(refs)
}

// response counts the class's methods plus the distinct method/function
// names its method bodies invoke.
func response(ci *classInfo) int {
	calls := map[string]bool{}
	for _, fd := range ci.methods {
		ast.Inspect(fd, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				calls[fun.Name] = true
			case *ast.SelectorExpr:
				calls[fun.Sel.Name] = true
			}
			return true
		})
	}
	return len(ci.methods) + len(calls)
}

// cohesion computes LCOM = max(0, P - Q): P method pairs sharing no
// receiver field, Q pairs sharing at least one.
func cohesion(ci *classInfo) int {
	// Per-method accessed receiver fields.
	var fieldSets []map[string]bool
	for _, fd := range ci.methods {
		if len(fd.Recv.List[0].Names) == 0 {
			fieldSets = append(fieldSets, map[string]bool{})
			continue
		}
		recvName := fd.Recv.List[0].Names[0].Name
		set := map[string]bool{}
		ast.Inspect(fd, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName && ci.fields[sel.Sel.Name] {
				set[sel.Sel.Name] = true
			}
			return true
		})
		fieldSets = append(fieldSets, set)
	}
	p, q := 0, 0
	for i := 0; i < len(fieldSets); i++ {
		for j := i + 1; j < len(fieldSets); j++ {
			shared := false
			for f := range fieldSets[i] {
				if fieldSets[j][f] {
					shared = true
					break
				}
			}
			if shared {
				q++
			} else {
				p++
			}
		}
	}
	if p > q {
		return p - q
	}
	return 0
}

// Summary aggregates a report the way Table 4 does: sum and average of
// each metric over all classes.
type Summary struct {
	Sum ClassMetrics
	Avg [6]float64 // WMC, DIT, CBO, NOC, RFC, LCOM
	N   int
}

// Summarize computes the Table 4 aggregation.
func (r *Report) Summarize() Summary {
	var s Summary
	s.N = len(r.Classes)
	for _, c := range r.Classes {
		s.Sum.WMC += c.WMC
		s.Sum.DIT += c.DIT
		s.Sum.NOC += c.NOC
		s.Sum.CBO += c.CBO
		s.Sum.RFC += c.RFC
		s.Sum.LCOM += c.LCOM
	}
	if s.N > 0 {
		n := float64(s.N)
		s.Avg = [6]float64{
			float64(s.Sum.WMC) / n, float64(s.Sum.DIT) / n, float64(s.Sum.CBO) / n,
			float64(s.Sum.NOC) / n, float64(s.Sum.RFC) / n, float64(s.Sum.LCOM) / n,
		}
	}
	return s
}
