package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the module-wide static call graph the interprocedural
// analyzers (detersafe, panicprop, the locklint suite) run on. The graph is
// stdlib-only and intentionally conservative:
//
//   - static calls (f(), pkg.F(), concrete method calls) become EdgeCall;
//   - interface method calls become one EdgeIface per module type whose
//     method set satisfies the interface (method-set resolution over every
//     named type declared in the loaded packages and their module imports);
//   - a reference to a module function outside call position (passed as a
//     callback, stored in a variable or field) becomes EdgeRef from the
//     referencing function — the value may be invoked downstream, so the
//     referencing call tree is treated as a potential caller. Function
//     literals are not separate nodes: a literal's body is attributed to the
//     enclosing declared function, which both spawns and (transitively)
//     owns it.
//
// Known over-approximations (EdgeRef, all-implementations dispatch) err on
// the side of reporting; known under-approximations are documented on
// BuildCallGraph. Alongside edges, the walk records per-node facts the
// analyzers consume: direct panic sites, deferred recover guards, and the
// nondeterminism sources detersafe taints (wall clock, process-global RNG,
// environment reads, map iteration order escaping into a slice or output,
// goroutine fan-out whose results are not folded into per-index slots).

// EdgeKind classifies a call-graph edge.
type EdgeKind uint8

const (
	// EdgeCall is a statically resolved call.
	EdgeCall EdgeKind = iota
	// EdgeIface is an interface-dispatch candidate: the callee is one of
	// the module types implementing the called interface method.
	EdgeIface
	// EdgeRef is a conservative edge to a function referenced as a value
	// (callback argument, assignment, composite literal field).
	EdgeRef
)

// Edge is one outgoing call-graph edge.
type Edge struct {
	// Callee is the target node.
	Callee *Node
	// Pos is the call or reference site in the caller.
	Pos token.Pos
	// Kind classifies how the edge was resolved.
	Kind EdgeKind
}

// Fact is one nondeterminism source recorded on a node for detersafe.
type Fact struct {
	// Pos is the source location of the nondeterministic operation.
	Pos token.Pos
	// What names the source ("time.Now", "math/rand.Intn (process-global
	// RNG)", "map iteration order escapes ...", ...).
	What string
}

// Node is one declared function or method in the call graph.
type Node struct {
	// ID is the stable identifier: pkgpath.Func or pkgpath.Recv.Method,
	// with an "‹xtest›" marker inserted for external-test declarations so
	// they cannot shadow same-named library functions.
	ID string
	// PkgPath is the declaring package's import path (module root for the
	// root package; no ".test" suffix).
	PkgPath string
	// RecvName is the receiver's base type name, "" for plain functions.
	RecvName string
	// Name is the function or method name.
	Name string
	// Pkg is the lint unit holding the declaration.
	Pkg *Package
	// Decl is the declaration; its body has been walked for edges/facts.
	Decl *ast.FuncDecl
	// Test marks declarations in _test.go files or external test units.
	Test bool
	// Main marks declarations in package main (commands, examples).
	Main bool
	// Exported reports an exported function, or an exported method on an
	// exported receiver type.
	Exported bool
	// Out holds the outgoing edges in source order (interface candidates
	// in sorted-callee order), deterministic across runs.
	Out []Edge

	// Panics holds direct panic call sites (builtin panic, including in
	// attributed function literals).
	Panics []token.Pos
	// Recovers reports a deferred recover in the function, which stops
	// panic propagation to callers.
	Recovers bool
	// Nondet holds the nondeterminism sources recorded for detersafe.
	Nondet []Fact
}

// String returns the node's short display name: package path relative to
// the module plus receiver and name ("internal/core.Session.Result").
func (n *Node) String() string {
	path := n.PkgPath
	if n.Pkg != nil {
		if path == n.Pkg.Module {
			path = lastSegment(n.Pkg.Module)
		} else {
			path = strings.TrimPrefix(path, n.Pkg.Module+"/")
		}
	}
	if n.RecvName != "" {
		return path + "." + n.RecvName + "." + n.Name
	}
	return path + "." + n.Name
}

func lastSegment(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// CallGraph is the module-wide static call graph.
type CallGraph struct {
	// Module is the module path the graph was built for.
	Module string
	nodes  map[string]*Node
}

// Node returns the node with the given ID, or nil.
func (g *CallGraph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns every node sorted by ID.
func (g *CallGraph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BuildCallGraph constructs the call graph over the loaded lint units.
// Packages must share one FileSet (as Load guarantees).
//
// Bodies are only available for the loaded units, so calls into packages
// outside the load (and the standard library) terminate at the caller;
// function literals stored in package-level variables and method values
// passed as plain function values are attributed to the function that
// creates them, not to later callers in other call trees.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	module := ""
	if len(pkgs) > 0 {
		module = pkgs[0].Module
	}
	b := &graphBuilder{
		g:         &CallGraph{Module: module, nodes: map[string]*Node{}},
		implCache: map[*types.Func][]string{},
	}
	b.collectTypes(pkgs)
	for _, pkg := range pkgs {
		xtest := strings.HasSuffix(pkg.Path, ".test")
		for _, f := range pkg.Files {
			test := xtest || strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go")
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				b.addNode(pkg, fd, test, xtest)
			}
		}
	}
	for _, n := range b.g.Nodes() {
		b.walkBody(n)
	}
	return b.g
}

// graphBuilder carries the state of one BuildCallGraph run.
type graphBuilder struct {
	g *CallGraph
	// candidates are the named non-interface types considered for
	// interface dispatch, sorted by (package path, name). The same type
	// may appear once per type-checking universe; edge IDs collapse the
	// duplicates.
	candidates []*types.TypeName
	// implCache memoizes interface-method resolution per method object.
	implCache map[*types.Func][]string
}

// funcID computes the stable node ID for a function object.
func funcID(fn *types.Func) string {
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if base := recvBaseName(sig.Recv().Type()); base != "" {
			return path + "." + base + "." + fn.Name()
		}
	}
	return path + "." + fn.Name()
}

// xtestID marks an external-test declaration's ID so it cannot collide with
// a same-named declaration of the package under test.
func xtestID(id string) string { return id + "‹xtest›" }

// recvBaseName returns the base type name of a receiver type ("" when the
// receiver is not a named type).
func recvBaseName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// addNode creates the node for one function declaration.
func (b *graphBuilder) addNode(pkg *Package, fd *ast.FuncDecl, test, xtest bool) {
	fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	id := funcID(fn)
	if xtest {
		id = xtestID(id)
	}
	if _, exists := b.g.nodes[id]; exists {
		return // duplicate declaration (type errors); keep the first
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvBaseName(sig.Recv().Type())
	}
	pkgPath := pkg.Path
	pkgPath = strings.TrimSuffix(pkgPath, ".test")
	b.g.nodes[id] = &Node{
		ID:       id,
		PkgPath:  pkgPath,
		RecvName: recv,
		Name:     fn.Name(),
		Pkg:      pkg,
		Decl:     fd,
		Test:     test,
		Main:     pkg.Types != nil && pkg.Types.Name() == "main",
		Exported: fd.Name.IsExported() && (recv == "" || ast.IsExported(recv)),
	}
}

// collectTypes gathers the interface-dispatch candidates: every named
// non-interface type declared in a loaded unit or in a module package those
// units import (the importable universes cross-package call sites see).
func (b *graphBuilder) collectTypes(pkgs []*Package) {
	seen := map[*types.TypeName]bool{}
	var visit func(tp *types.Package, module string)
	visit = func(tp *types.Package, module string) {
		if tp == nil {
			return
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || seen[tn] {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			seen[tn] = true
			b.candidates = append(b.candidates, tn)
		}
		for _, imp := range tp.Imports() {
			if inModule(imp.Path(), module) {
				visit(imp, module)
			}
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types, pkg.Module)
	}
	sort.Slice(b.candidates, func(i, j int) bool {
		a, c := b.candidates[i], b.candidates[j]
		ap, cp := "", ""
		if a.Pkg() != nil {
			ap = a.Pkg().Path()
		}
		if c.Pkg() != nil {
			cp = c.Pkg().Path()
		}
		if ap != cp {
			return ap < cp
		}
		return a.Name() < c.Name()
	})
}

// walkBody records the node's outgoing edges and facts.
func (b *graphBuilder) walkBody(n *Node) {
	if n.Decl.Body == nil {
		return
	}
	info := n.Pkg.Info
	xtest := strings.HasSuffix(n.Pkg.Path, ".test")
	// calleeIdents tracks identifiers consumed as the function position of
	// a call, so the reference pass below only sees value uses.
	calleeIdents := map[*ast.Ident]bool{}

	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.CallExpr:
			b.handleCall(n, info, xtest, nd, calleeIdents)
		case *ast.GoStmt:
			b.goroutineFact(n, info, nd)
		case *ast.DeferStmt:
			if callsRecover(info, nd.Call) {
				n.Recovers = true
			}
		case *ast.BlockStmt:
			for _, esc := range mapEscapes(info, nd) {
				n.Nondet = append(n.Nondet, Fact{Pos: esc.pos, What: esc.what()})
			}
		}
		return true
	})

	// Reference pass: module functions used as values.
	ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		b.addEdge(n, fn, xtest, id.Pos(), EdgeRef)
		return true
	})
}

// handleCall resolves one call expression into edges and facts.
func (b *graphBuilder) handleCall(n *Node, info *types.Info, xtest bool, call *ast.CallExpr, calleeIdents map[*ast.Ident]bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		calleeIdents[fun] = true
		obj := info.Uses[fun]
		if obj == types.Universe.Lookup("panic") {
			n.Panics = append(n.Panics, call.Pos())
			return
		}
		if fn, ok := obj.(*types.Func); ok {
			b.addEdge(n, fn, xtest, call.Pos(), EdgeCall)
			b.nondetCall(n, fn, call.Pos())
		}
	case *ast.SelectorExpr:
		calleeIdents[fun.Sel] = true
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		if !ok {
			return
		}
		if sel, selOK := info.Selections[fun]; selOK && sel.Kind() == types.MethodVal {
			if iface, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				b.addIfaceEdges(n, fn, iface, call.Pos())
				return
			}
		}
		b.addEdge(n, fn, xtest, call.Pos(), EdgeCall)
		b.nondetCall(n, fn, call.Pos())
	}
	// Indirect calls through function values are covered conservatively by
	// the EdgeRef reference pass.
}

// addEdge links n to the module function fn (no-op for functions outside
// the loaded units: stdlib, or packages not covered by the load patterns).
func (b *graphBuilder) addEdge(n *Node, fn *types.Func, xtest bool, pos token.Pos, kind EdgeKind) {
	id := funcID(fn)
	// Within an external-test unit, objects belonging to the unit's own
	// check are the test package's declarations; the package under test is
	// reached through its importable universe and keeps the plain ID.
	if xtest && fn.Pkg() != nil && fn.Pkg() == n.Pkg.Types {
		id = xtestID(id)
	}
	callee := b.g.nodes[id]
	if callee == nil || callee == n {
		return
	}
	n.Out = append(n.Out, Edge{Callee: callee, Pos: pos, Kind: kind})
}

// addIfaceEdges links n to every module implementation of the called
// interface method, in sorted candidate order.
func (b *graphBuilder) addIfaceEdges(n *Node, m *types.Func, iface *types.Interface, pos token.Pos) {
	ids, cached := b.implCache[m]
	if !cached {
		seen := map[string]bool{}
		for _, tn := range b.candidates {
			t := tn.Type()
			impl := t
			if !types.Implements(t, iface) {
				pt := types.NewPointer(t)
				if !types.Implements(pt, iface) {
					continue
				}
				impl = pt
			}
			obj, _, _ := types.LookupFieldOrMethod(impl, true, tn.Pkg(), m.Name())
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			id := funcID(fn)
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		b.implCache[m] = ids
	}
	for _, id := range ids {
		callee := b.g.nodes[id]
		if callee == nil || callee == n {
			continue
		}
		n.Out = append(n.Out, Edge{Callee: callee, Pos: pos, Kind: EdgeIface})
	}
}

// nondetCall records a fact when the callee is one of the process-global
// nondeterminism sources. Seeded generators (rand.New(rand.NewSource(s)))
// are deterministic given their seed and are deliberately not sources; only
// the package-level math/rand functions backed by the global generator
// taint a path.
func (b *graphBuilder) nondetCall(n *Node, fn *types.Func, pos token.Pos) {
	if fn.Pkg() == nil {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return // methods (e.g. *rand.Rand) are seed-deterministic
	}
	name := fn.Name()
	switch fn.Pkg().Path() {
	case "time":
		switch name {
		case "Now", "Since", "Until":
			n.Nondet = append(n.Nondet, Fact{Pos: pos, What: "time." + name + " (wall clock)"})
		}
	case "math/rand", "math/rand/v2":
		if !strings.HasPrefix(name, "New") {
			n.Nondet = append(n.Nondet, Fact{Pos: pos, What: fn.Pkg().Path() + "." + name + " (process-global RNG)"})
		}
	case "os":
		switch name {
		case "Getenv", "LookupEnv", "Environ":
			n.Nondet = append(n.Nondet, Fact{Pos: pos, What: "os." + name + " (environment read)"})
		}
	}
}

// goroutineFact flags `go func() {...}()` statements whose closure writes
// shared state without per-index slotting: a plain assignment, increment or
// channel send targeting a variable declared outside the closure. Writes to
// x[i] are per-slot and order-independent (the fold order is the indexing
// order, not goroutine scheduling), which is exactly the ordered-replay
// shape the parallel phases use. Named-function goroutines are covered by
// their own node's facts through the call edge.
func (b *graphBuilder) goroutineFact(n *Node, info *types.Info, g *ast.GoStmt) {
	lit, ok := g.Call.Fun.(*ast.FuncLit)
	if !ok {
		return
	}
	offending := false
	shared := func(e ast.Expr) bool {
		if _, isIndex := ast.Unparen(e).(*ast.IndexExpr); isIndex {
			return false // per-slot write
		}
		obj := rootObject(info, e)
		if obj == nil {
			return true // unresolvable target: assume shared
		}
		return obj.Pos() < lit.Pos() || obj.Pos() > lit.End()
	}
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if offending {
			return false
		}
		switch s := nd.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if id, isIdent := lhs.(*ast.Ident); isIdent && id.Name == "_" {
					continue
				}
				if shared(lhs) {
					offending = true
				}
			}
		case *ast.IncDecStmt:
			if shared(s.X) {
				offending = true
			}
		case *ast.SendStmt:
			if shared(s.Chan) {
				offending = true
			}
		}
		return true
	})
	if offending {
		n.Nondet = append(n.Nondet, Fact{Pos: g.Pos(), What: "goroutine fan-out writes shared state without per-index slots"})
	}
}

// callsRecover reports whether the deferred call is recover() itself or a
// function literal whose body calls recover.
func callsRecover(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("recover") {
		return true
	}
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("recover") {
			found = true
		}
		return !found
	})
	return found
}
