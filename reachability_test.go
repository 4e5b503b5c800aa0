package broadband_test

import (
	"go/ast"
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

// testOnlyExempt lists the internal functions, methods and types that no
// non-test code reaches but that stay on purpose, as "pkg.Name" or
// "pkg.Recv.Method" (pkg is the package name).
var testOnlyExempt = []string{
	// Fault-injection helpers: shared test infrastructure of other packages.
	"chaos.HTTPFault", "chaos.HTTPFault.String", "chaos.Injector.HTTPFaultPlan",
	"chaos.slowBody", "chaos.SlowBody", "chaos.slowBody.Read",
	"chaos.brokenBody", "chaos.BrokenBody", "chaos.brokenBody.Read",
	"chaos.GzipBytes", "chaos.Injector.CorruptGzipBytes",
	"chaos.FaultError", "chaos.FaultError.Error",
	"chaos.flakyReader", "chaos.Injector.FlakyReader", "chaos.flakyReader.Read",
	"chaos.flakyWriter", "chaos.Injector.FlakyWriter", "chaos.flakyWriter.Write",
	"chaos.Injector.PerturbCSV",
	// The -update path that regenerates the goldens.
	"golden.Update",
	// Fixtures tests in several packages build panels and selections with.
	"dataset.BuildPanel", "dataset.ColNotCountry", "dataset.ColClass",
	"dataset.ColCapacityBetween", "stats.CapacityClass.Contains", "dataset.ReadAll",
	// Accessors in-package tests use to observe live behaviour.
	"netsim.Simulator.Pending", "netsim.calendarQueue.len", "netsim.Simulator.Halt",
	"netsim.TCPSender.SetOnComplete", "netsim.TCPSender.AckedBytes", "netsim.TCPSender.SRTT",
	"netsim.TCPSender.Retransmits", "netsim.TCPSender.Timeouts", "netsim.TCPReceiver.ReceivedBytes",
	"experiments.Fig08.Group", "experiments.Fig09.Bar", "experiments.Table05.Row",
}

// TestInternalAPIReachable keeps test-only API out of the program: every
// function, method and type declared under internal/ must be reachable
// from the non-test code of the module and of perfbench/, or be listed in
// testOnlyExempt. Test-only reference implementations belong in _test.go
// files. A method counts as reached when it is called, or when its type
// is reached and it implements an interface method that reached code (or
// the standard library) calls.
func TestInternalAPIReachable(t *testing.T) {
	const mod = "github.com/nwca/broadband"
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ip := mod
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			ip += "/" + dir
		}
		files[ip] = append(files[ip], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	infos := map[string]*types.Info{}
	checked := map[string]*types.Package{}
	std := importer.Default()
	var imp importerFunc
	imp = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		if _, ok := files[path]; !ok {
			return std.Import(path)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path], infos[path] = p, info
		return p, nil
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := imp(p); err != nil {
			t.Fatal(err)
		}
	}

	// One node per package-level declaration; an edge to every object its
	// declaration mentions.
	refs := map[types.Object][]types.Object{}
	ifaceCalls := map[types.Object][]string{}
	var decls, live []types.Object
	for _, path := range paths {
		info := infos[path]
		internal := strings.Contains(path, "/internal/")
		for _, f := range files[path] {
			for _, d := range f.Decls {
				var owners []types.Object
				switch d := d.(type) {
				case *ast.FuncDecl:
					owners = append(owners, info.Defs[d.Name])
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						live = append(live, info.Defs[d.Name])
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							owners = append(owners, info.Defs[s.Name])
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									owners = append(owners, info.Defs[n])
								}
							}
						}
					}
				}
				decls = append(decls, owners...)
				if !internal {
					live = append(live, owners...)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok || info.Uses[id] == nil {
						return true
					}
					u := info.Uses[id]
					switch o := u.(type) {
					case *types.Func:
						u = o.Origin()
						if r := o.Type().(*types.Signature).Recv(); r != nil && types.IsInterface(r.Type()) {
							for _, own := range owners {
								ifaceCalls[own] = append(ifaceCalls[own], o.Name())
							}
						}
					case *types.Var:
						u = o.Origin()
					}
					for _, own := range owners {
						refs[own] = append(refs[own], u)
					}
					return true
				})
			}
		}
	}

	// Methods the standard library calls through its interfaces.
	called := map[string]bool{}
	for _, m := range []string{"String", "Error", "Unwrap", "Is", "As", "Read", "Write", "Close",
		"ServeHTTP", "Len", "Less", "Swap", "Push", "Pop", "MarshalJSON", "UnmarshalJSON",
		"MarshalText", "UnmarshalText", "Format", "Header", "WriteHeader", "Flush"} {
		called[m] = true
	}
	reached := map[types.Object]bool{}
	for len(live) > 0 {
		for len(live) > 0 {
			o := live[len(live)-1]
			live = live[:len(live)-1]
			if o == nil || reached[o] {
				continue
			}
			reached[o] = true
			live = append(live, refs[o]...)
			for _, m := range ifaceCalls[o] {
				called[m] = true
			}
		}
		for _, o := range decls {
			if fn, ok := o.(*types.Func); ok && !reached[o] && called[fn.Name()] {
				if recv := receiverType(fn); recv != nil && reached[recv] {
					live = append(live, o)
				}
			}
		}
	}

	exempt := map[string]bool{}
	for _, key := range testOnlyExempt {
		exempt[key] = true
	}
	for _, o := range decls {
		if o == nil || reached[o] || !strings.Contains(o.Pkg().Path(), "/internal/") {
			continue
		}
		if _, ok := o.(*types.TypeName); !ok {
			if _, ok := o.(*types.Func); !ok {
				continue // package-level vars and consts are out of scope
			}
		}
		key := o.Pkg().Name() + "." + o.Name()
		if fn, ok := o.(*types.Func); ok {
			if recv := receiverType(fn); recv != nil {
				key = o.Pkg().Name() + "." + recv.Name() + "." + o.Name()
			}
		}
		if exempt[key] {
			delete(exempt, key)
			continue
		}
		t.Errorf("%s: %s has no caller outside _test.go files; delete it or move it into the test that uses it",
			fset.Position(o.Pos()), key)
	}
	for key := range exempt {
		t.Errorf("%s is exempt but non-test code reaches it, or it is gone; drop the exemption", key)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// receiverType returns the named type a method is declared on, or nil for
// a plain function.
func receiverType(fn *types.Func) *types.TypeName {
	r := fn.Type().(*types.Signature).Recv()
	if r == nil {
		return nil
	}
	t := r.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
