package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// reachAllowlist names the production functions no binary, example or
// perfbench reaches but that stay, each with the reason. A key is
// "pkgpath.Recv.Name" (or "pkgpath.Name" for a plain function). Each
// entry is also a root, so what it calls needs no entry of its own.
var reachAllowlist = map[string]string{
	"repro/internal/analysis/analysistest.Run":  "golden-package harness shared by the analyzer tests",
	"repro/internal/analysis.LoadDir":           "loads analysistest golden packages, which go list skips",
	"repro/internal/event.Event.Equal":          "event equality for the round-trip tests of event and the regex oracle of fa",
	"repro/internal/fa.FA.Sample":               "draws accepted traces for the fa and concept tests and benchmarks",
	"repro/internal/fa.MustCompile":             "regex-built automata for the fa, fa/lang, core and wellformed tests",
	"repro/internal/learn.KTails.MustLearn":     "k-tails fixtures for the learn tests and the root benchmarks",
	"repro/internal/prog.MustParse":             "program fixtures for the prog tests",
	"repro/internal/server.Server.EvictIdleNow": "runs one idle-eviction sweep on demand, so eviction tests need no clock",
}

// stdMethodNames are the methods the standard library calls through its
// own interfaces (fmt, errors, encoding/json, net/http, sort, io); a
// method with one of these names is kept whether or not repository code
// names it.
var stdMethodNames = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true,
}

// TestEveryFunctionReachable fails for every production function or
// method that no main, init or package-level var initializer in this
// module or the perfbench module reaches. Edges are the identifiers
// each reached body uses. A call through an interface method reaches
// every method of that name, so the walk over-approximates and never
// reports a function that can run.
func TestEveryFunctionReachable(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, dir := range []string{root, filepath.Join(root, "perfbench")} {
		ps, err := LoadPackages(dir, "./...")
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, ps...)
	}

	type decl struct {
		pkg *Package
		fn  *ast.FuncDecl
		pos token.Position
	}
	decls := map[string]decl{}
	byName := map[string][]string{} // method name → method keys
	reached := map[string]bool{}
	var work []string
	mark := func(key string) {
		if !reached[key] {
			reached[key] = true
			work = append(work, key)
		}
	}
	// roots are the bodies of init functions (a package may declare
	// several, so they have no unique key) and the var initializers; they
	// are walked once byName is complete.
	type rootNode struct {
		node ast.Node
		info *types.Info
	}
	var roots []rootNode
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.Name == "init" {
						roots = append(roots, rootNode{d.Body, p.Info})
						continue
					}
					key := funcKey(p.Info.Defs[d.Name].(*types.Func))
					decls[key] = decl{pkg: p, fn: d, pos: p.Fset.Position(d.Pos())}
					if d.Recv != nil {
						byName[d.Name.Name] = append(byName[d.Name.Name], key)
					} else if d.Name.Name == "main" && p.Types.Name() == "main" {
						mark(key)
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, s := range d.Specs {
						for _, v := range s.(*ast.ValueSpec).Values {
							roots = append(roots, rootNode{v, p.Info})
						}
					}
				}
			}
		}
	}

	walk := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				for _, k := range byName[fn.Name()] {
					mark(k)
				}
				return true
			}
			mark(funcKey(fn))
			return true
		})
	}
	for _, r := range roots {
		walk(r.node, r.info)
	}
	for _, p := range pkgs {
		markInterfaceMethods(p.Types, mark)
	}
	for name, keys := range byName {
		if stdMethodNames[name] {
			for _, k := range keys {
				mark(k)
			}
		}
	}
	for key := range reachAllowlist {
		if _, ok := decls[key]; !ok {
			t.Errorf("allowlist entry %s names no function", key)
		}
		mark(key)
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		if d, ok := decls[key]; ok && d.fn.Body != nil {
			walk(d.fn.Body, d.pkg.Info)
		}
	}

	var dead []string
	for key, d := range decls {
		if !reached[key] {
			rel, _ := filepath.Rel(root, d.pos.Filename)
			dead = append(dead, key+" ("+rel+":"+strconv.Itoa(d.pos.Line)+")")
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d production functions are reached by no main, init or var initializer; delete them or add a reasoned entry to reachAllowlist:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// markInterfaceMethods marks the methods a type of pkg needs to satisfy an
// interface declared in pkg, such as the unexported marker method of a
// closed sum type: deleting one breaks the build even when nothing calls
// it.
func markInterfaceMethods(pkg *types.Package, mark func(string)) {
	scope := pkg.Scope()
	for _, in := range scope.Names() {
		it, ok := scope.Lookup(in).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := it.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, tn := range scope.Names() {
			obj, ok := scope.Lookup(tn).(*types.TypeName)
			if !ok || types.IsInterface(obj.Type()) {
				continue
			}
			if !types.Implements(obj.Type(), iface) && !types.Implements(types.NewPointer(obj.Type()), iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				m, _, _ := types.LookupFieldOrMethod(obj.Type(), true, pkg, iface.Method(i).Name())
				if fn, ok := m.(*types.Func); ok {
					mark(funcKey(fn))
				}
			}
		}
	}
}

// funcKey names fn as "pkgpath.Recv.Name" with pointers and type
// arguments stripped, so an object type-checked from source and the same
// object read from another package's export data share one key.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			key += n.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}
