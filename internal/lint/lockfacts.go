package lint

// This file builds the lock-fact layer shared by the locklint analyzers
// (lockorder, heldcall, goleak, ctxflow — see locklint.go). For every
// call-graph node it extracts, stdlib-only:
//
//   - Lock/Unlock and RLock/RUnlock calls (with `defer mu.Unlock()`
//     pairing) on a sync.Mutex or sync.RWMutex field of a named struct
//     type, reached directly or through a pointer, keyed "pkg.Type.field".
//     That is the one lock shape the module uses; any other lock operation
//     in non-test code (a package-level, local or embedded mutex, any other
//     receiver expression, TryLock/TryRLock, a sync.Locker, sync.Once.Do)
//     is recorded as an unsupported shape, which lockorder reports, instead
//     of a guess;
//   - direct blocking operations: channel sends/receives outside a select,
//     `select` without a default, sync.WaitGroup.Wait, time.Sleep, and a
//     curated list of network/file I/O calls;
//   - statically resolved calls to other module functions, so lock sets and
//     blocking behavior propagate interprocedurally (EdgeCall only — iface
//     and ref edges are deliberately excluded as too coarse);
//   - goroutine spawns, context.Background()/TODO() sites, and whether a
//     declared ctx parameter is actually used.
//
// A function body is split into single-goroutine *units*: the declared body
// (with immediately-invoked and deferred literals inlined, defers flushed
// at their owning frame's exit in LIFO order) is the root unit; each `go
// func(){...}` body and each literal passed or stored as a value becomes
// its own unit. Goroutine and callback units are excluded from the parent's
// lock/blocking summary — they run on another goroutine (or later), so e.g.
// a pool task re-acquiring the mutex its submitter holds is not a
// self-deadlock.
//
// Known approximations, all documented trade-offs: the held-set walk is a
// source-order flow approximation (an early conditional Unlock+return makes
// the code after it look lock-free); interface dispatch and function values
// do not propagate lock facts; a callback invoked synchronously by its
// receiver (sort.Slice style) is not charged to the caller.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockMode distinguishes write (Lock) from read (RLock) acquisitions of an
// RWMutex; plain Mutexes always acquire in write mode.
type lockMode uint8

const (
	modeWrite lockMode = iota
	modeRead
)

// verb renders the acquisition verb for diagnostics.
func (m lockMode) verb() string {
	if m == modeRead {
		return "RLock"
	}
	return "Lock"
}

// evKind classifies one lock-relevant event in a function unit.
type evKind uint8

const (
	evAcquire evKind = iota
	evRelease
	evCall  // statically resolved call to another module function
	evBlock // direct blocking operation
	evGo    // goroutine spawn
)

// lockEvent is one event in a unit's execution-order approximation.
type lockEvent struct {
	kind evKind
	pos  token.Pos
	// key/mode identify the lock for evAcquire/evRelease.
	key  string
	mode lockMode
	// callee is the module target for evCall, or the named goroutine body
	// for evGo when resolvable.
	callee *Node
	// block describes the operation for evBlock.
	block string
	// lit is the spawned literal for evGo (nil for named goroutines).
	lit *ast.FuncLit
	// deferred marks events scheduled at frame exit.
	deferred bool
}

// unitKind classifies how a unit comes to run.
type unitKind uint8

const (
	unitRoot     unitKind = iota
	unitGo                // `go func(){...}` body: its own goroutine
	unitCallback          // literal passed or stored as a value: runs elsewhere
)

// funcUnit is one single-goroutine analysis unit of a declared function.
type funcUnit struct {
	node   *Node
	kind   unitKind
	lit    *ast.FuncLit // non-nil for unitGo/unitCallback
	events []lockEvent
}

// acqInfo records how a node may come to acquire a lock: directly (next is
// nil), or transitively through a call to next.
type acqInfo struct {
	mode lockMode
	next *Node
}

// blockInfo records how a node may come to block: directly by the operation
// desc (next is nil), or transitively through a call to next.
type blockInfo struct {
	desc string
	next *Node
}

// LockEdge is one lock-acquisition-order edge: To was acquired (directly at
// Pos, or transitively via a call to Via at Pos) while From was held in N.
type LockEdge struct {
	From, To string
	N        *Node
	Pos      token.Pos
	Via      *Node
}

// selfAcqFinding records a lock acquired while the same lock is already held
// in one unit (directly, or via a call chain when via is non-nil).
type selfAcqFinding struct {
	n         *Node
	pos       token.Pos
	key       string
	heldMode  lockMode
	againMode lockMode
	via       *Node
}

// unsupportedFinding records a lock operation in non-test code whose lock
// the facts cannot key; call renders the called method ("mu.TryLock").
type unsupportedFinding struct {
	n    *Node
	pos  token.Pos
	call string
}

// deferLoopFinding records a `defer mu.Unlock()` registered inside a loop:
// the release runs at function exit, so the next iteration self-deadlocks.
type deferLoopFinding struct {
	n   *Node
	pos token.Pos
	key string
}

// heldCallFinding records a blocking operation (op) or a call into a
// may-block function (callee) executed while held locks were held.
type heldCallFinding struct {
	n      *Node
	pos    token.Pos
	op     string
	callee *Node
	held   []string
}

// ctxDropFinding records a ctx parameter that is declared but never used in
// a function that does blocking or context-aware work.
type ctxDropFinding struct {
	n    *Node
	pos  token.Pos
	name string
}

// LockFacts is the module-wide lock-fact layer.
type LockFacts struct {
	module string
	graph  *CallGraph

	units      map[string][]*funcUnit // node ID → units, root unit first
	mayAcquire map[string]map[string]*acqInfo
	mayBlock   map[string]*blockInfo

	edges       []*LockEdge
	selfAcq     []selfAcqFinding
	deferLoop   []deferLoopFinding
	heldCalls   []heldCallFinding
	unsupported []unsupportedFinding

	bgCalls  map[string][]Fact // context.Background()/TODO() sites per node
	wantsCtx map[string]bool   // node does blocking or context-aware work
	ctxDrops []ctxDropFinding
}

// LockFacts returns the lazily built, cached lock-fact layer for the module.
func (mp *ModulePass) LockFacts() *LockFacts {
	if mp.lockFacts == nil {
		mp.lockFacts = BuildLockFacts(mp.Graph)
	}
	return mp.lockFacts
}

// BuildLockFacts extracts the lock-fact layer from the call graph's nodes.
func BuildLockFacts(g *CallGraph) *LockFacts {
	lf := &LockFacts{
		module:     g.Module,
		graph:      g,
		units:      map[string][]*funcUnit{},
		mayAcquire: map[string]map[string]*acqInfo{},
		mayBlock:   map[string]*blockInfo{},
		bgCalls:    map[string][]Fact{},
		wantsCtx:   map[string]bool{},
	}
	for _, n := range g.Nodes() {
		c := &lockCollector{lf: lf, g: g, n: n, info: n.Pkg.Info,
			xtest: strings.HasSuffix(n.Pkg.Path, ".test")}
		root := &funcUnit{node: n, kind: unitRoot}
		c.pending = []*funcUnit{root}
		if n.Decl.Body != nil {
			// Literals discovered while walking enqueue further units.
			for i := 0; i < len(c.pending); i++ {
				u := c.pending[i]
				body := ast.Node(n.Decl.Body)
				if u.lit != nil {
					body = u.lit.Body
				}
				w := &frameWalker{c: c}
				w.walk(body, nil, 0, nil)
				u.events = w.flush()
			}
		}
		lf.units[n.ID] = c.pending
		lf.bgCalls[n.ID] = c.bg
		lf.wantsCtx[n.ID] = c.wantsCtx
	}
	lf.computeSummaries()
	lf.heldWalk()
	lf.computeCtxDrops()
	return lf
}

// lockCollector carries per-node state while extracting events.
type lockCollector struct {
	lf    *LockFacts
	g     *CallGraph
	n     *Node
	info  *types.Info
	xtest bool

	pending  []*funcUnit // work queue; index 0 is the root unit
	bg       []Fact
	wantsCtx bool
}

// addUnit enqueues a separately executed literal as its own unit.
func (c *lockCollector) addUnit(kind unitKind, lit *ast.FuncLit) {
	c.pending = append(c.pending, &funcUnit{node: c.n, kind: kind, lit: lit})
}

// frameWalker walks one frame (a declared body or an inlined literal) in
// source order; deferred groups flush at the frame's exit in LIFO order.
type frameWalker struct {
	c        *lockCollector
	events   []lockEvent
	deferred [][]lockEvent
}

// flush returns the frame's events with deferred groups appended in reverse
// registration order (Go's defer semantics), marked deferred.
func (w *frameWalker) flush() []lockEvent {
	out := w.events
	for i := len(w.deferred) - 1; i >= 0; i-- {
		for _, ev := range w.deferred[i] {
			ev.deferred = true
			out = append(out, ev)
		}
	}
	return out
}

// emit appends an event to the deferred group d, or to the frame's normal
// event stream when d is nil.
func (w *frameWalker) emit(d *[]lockEvent, ev lockEvent) {
	if d != nil {
		*d = append(*d, ev)
		return
	}
	w.events = append(w.events, ev)
}

// walk visits nd in source order. d routes events into a deferred group,
// loop counts enclosing loops in this frame, and nbc marks send/receive
// nodes that are select comm clauses (already accounted for).
func (w *frameWalker) walk(nd ast.Node, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	if nd == nil {
		return
	}
	switch x := nd.(type) {
	case *ast.DeferStmt:
		w.handleDefer(x, d, loop, nbc)
	case *ast.GoStmt:
		w.handleGo(x, d, loop, nbc)
	case *ast.SelectStmt:
		w.handleSelect(x, d, loop, nbc)
	case *ast.ForStmt:
		w.walk(x.Init, d, loop, nbc)
		w.walk(x.Cond, d, loop+1, nbc)
		w.walk(x.Body, d, loop+1, nbc)
		w.walk(x.Post, d, loop+1, nbc)
	case *ast.RangeStmt:
		w.walk(x.X, d, loop, nbc)
		if t := w.c.info.TypeOf(x.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				w.emit(d, lockEvent{kind: evBlock, pos: x.Pos(), block: "receive ranging over a channel"})
			}
		}
		w.walk(x.Body, d, loop+1, nbc)
	case *ast.CallExpr:
		w.handleCall(x, d, loop, nbc)
	case *ast.FuncLit:
		w.c.addUnit(unitCallback, x)
	case *ast.SendStmt:
		if !nbc[x] {
			w.emit(d, lockEvent{kind: evBlock, pos: x.Pos(), block: "channel send outside a select with default"})
		}
		w.walk(x.Chan, d, loop, nbc)
		w.walk(x.Value, d, loop, nbc)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW && !nbc[x] {
			w.emit(d, lockEvent{kind: evBlock, pos: x.Pos(), block: "channel receive outside a select with default"})
		}
		w.walk(x.X, d, loop, nbc)
	default:
		ast.Inspect(nd, func(child ast.Node) bool {
			if child == nil || child == nd {
				return true
			}
			switch child.(type) {
			case *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt, *ast.ForStmt,
				*ast.RangeStmt, *ast.CallExpr, *ast.FuncLit, *ast.SendStmt,
				*ast.UnaryExpr:
				w.walk(child, d, loop, nbc)
				return false
			}
			return true
		})
	}
}

// handleDefer collects the deferred call's events into a new deferred group
// of the current frame. Arguments (and a deferred literal's captures) are
// evaluated at the defer statement, so they are walked in normal context.
func (w *frameWalker) handleDefer(x *ast.DeferStmt, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	var grp []lockEvent
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		sub := &frameWalker{c: w.c}
		sub.walk(lit.Body, nil, 0, nil)
		grp = sub.flush()
	} else if ev, ok := w.c.classifyCall(x.Call); ok {
		grp = append(grp, ev)
	}
	for _, f := range grp {
		if f.kind == evRelease && loop > 0 {
			w.c.lf.deferLoop = append(w.c.lf.deferLoop,
				deferLoopFinding{n: w.c.n, pos: x.Pos(), key: f.key})
		}
	}
	w.walkCallOperands(x.Call, d, loop, nbc)
	w.deferred = append(w.deferred, grp)
}

// handleGo records the spawn and routes the goroutine body into its own unit.
func (w *frameWalker) handleGo(x *ast.GoStmt, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	ev := lockEvent{kind: evGo, pos: x.Pos()}
	if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
		ev.lit = lit
		w.c.addUnit(unitGo, lit)
	} else if fn := staticCallee(w.c.info, x.Call); fn != nil {
		ev.callee = w.c.resolveModuleCallee(fn)
	}
	w.emit(d, ev)
	w.walkCallOperands(x.Call, d, loop, nbc)
}

// handleSelect emits one blocking event for a default-less select and marks
// the comm-clause sends/receives as accounted for.
func (w *frameWalker) handleSelect(x *ast.SelectStmt, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	hasDefault := false
	for _, cl := range x.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.emit(d, lockEvent{kind: evBlock, pos: x.Pos(), block: "select without a default case"})
	}
	marked := map[ast.Node]bool{}
	for k, v := range nbc {
		marked[k] = v
	}
	for _, cl := range x.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok || cc.Comm == nil {
			continue
		}
		switch comm := cc.Comm.(type) {
		case *ast.SendStmt:
			marked[comm] = true
		case *ast.ExprStmt:
			marked[ast.Unparen(comm.X)] = true
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				marked[ast.Unparen(comm.Rhs[0])] = true
			}
		}
	}
	for _, cl := range x.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		w.walk(cc.Comm, d, loop, marked)
		for _, s := range cc.Body {
			w.walk(s, d, loop, nbc)
		}
	}
}

// handleCall classifies one call and walks its operands. Immediately
// invoked literals run synchronously on this goroutine and are inlined;
// literal arguments become callback units.
func (w *frameWalker) handleCall(x *ast.CallExpr, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	if lit, ok := ast.Unparen(x.Fun).(*ast.FuncLit); ok {
		sub := &frameWalker{c: w.c}
		sub.walk(lit.Body, nil, 0, nil)
		for _, ev := range sub.flush() {
			ev.deferred = false
			w.emit(d, ev)
		}
		for _, a := range x.Args {
			w.walk(a, d, loop, nbc)
		}
		return
	}
	if ev, ok := w.c.classifyCall(x); ok {
		w.emit(d, ev)
	}
	w.walkCallOperands(x, d, loop, nbc)
}

// walkCallOperands walks a call's receiver expression and arguments;
// literal arguments become callback units via the FuncLit case in walk.
func (w *frameWalker) walkCallOperands(x *ast.CallExpr, d *[]lockEvent, loop int, nbc map[ast.Node]bool) {
	if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
		w.walk(sel.X, d, loop, nbc)
	}
	for _, a := range x.Args {
		w.walk(a, d, loop, nbc)
	}
}

// resolveModuleCallee maps a function object to its call-graph node, with
// the same external-test ID handling the graph builder uses.
func (c *lockCollector) resolveModuleCallee(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	id := funcID(fn)
	if c.xtest && fn.Pkg() != nil && fn.Pkg() == c.n.Pkg.Types {
		id = xtestID(id)
	}
	callee := c.g.nodes[id]
	if callee == c.n {
		return nil
	}
	return callee
}

// classifyCall turns one call into a lock, blocking or module-call event.
// It also records context.Background()/TODO() sites and whether the node
// calls anything that takes a context (for ctxflow).
func (c *lockCollector) classifyCall(call *ast.CallExpr) (lockEvent, bool) {
	if ev, ok := c.lockOp(call); ok {
		return ev, true
	}
	fn := staticCallee(c.info, call)
	if fn == nil {
		return lockEvent{}, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && hasCtxParam(sig) {
		c.wantsCtx = true
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == "context" {
		if name := fn.Name(); name == "Background" || name == "TODO" {
			c.bg = append(c.bg, Fact{Pos: call.Pos(), What: "context." + name + "()"})
		}
	}
	if desc, ok := blockingStdlibCall(c.info, fn, call); ok {
		return lockEvent{kind: evBlock, pos: call.Pos(), block: desc}, true
	}
	if callee := c.resolveModuleCallee(fn); callee != nil {
		return lockEvent{kind: evCall, pos: call.Pos(), callee: callee}, true
	}
	return lockEvent{}, false
}

// lockOp recognizes the lock operations of package sync. Lock, Unlock,
// RLock and RUnlock on a keyable field mutex become events; every other
// lock operation is recorded as unsupported.
func (c *lockCollector) lockOp(call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	fn, ok := c.info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return lockEvent{}, false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return lockEvent{}, false
	}
	var kind evKind
	var mode lockMode
	switch recvBaseName(sig.Recv().Type()) + "." + fn.Name() {
	case "Mutex.Lock", "RWMutex.Lock":
		kind, mode = evAcquire, modeWrite
	case "Mutex.Unlock", "RWMutex.Unlock":
		kind, mode = evRelease, modeWrite
	case "RWMutex.RLock":
		kind, mode = evAcquire, modeRead
	case "RWMutex.RUnlock":
		kind, mode = evRelease, modeRead
	case "Mutex.TryLock", "RWMutex.TryLock", "RWMutex.TryRLock", "Once.Do", "Locker.Lock", "Locker.Unlock":
		c.unsupported(call, sel)
		return lockEvent{}, false
	default:
		return lockEvent{}, false
	}
	key := c.lockKeyFor(sel)
	if key == "" {
		c.unsupported(call, sel)
		return lockEvent{}, false
	}
	return lockEvent{kind: kind, pos: call.Pos(), key: key, mode: mode}, true
}

// lockKeyFor keys the receiver of the method selector x.f.Lock as
// "pkg.Type.f" when f is a field declared in the named struct type of x
// (reached directly or through a pointer), and returns "" for any other
// receiver: a package-level or local mutex, a method promoted through an
// embedded mutex, a promoted field, an index or call expression.
func (c *lockCollector) lockKeyFor(sel *ast.SelectorExpr) string {
	if m := c.info.Selections[sel]; m == nil || len(m.Index()) != 1 {
		return ""
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	f := c.info.Selections[field]
	if f == nil || f.Kind() != types.FieldVal || len(f.Index()) != 1 {
		return ""
	}
	if name := namedDisplay(f.Recv(), c.lf.module); name != "" {
		return name + "." + field.Sel.Name
	}
	return ""
}

// unsupported records a lock operation the facts cannot key. Test code is
// exempt, as lockorder and heldcall skip it anyway.
func (c *lockCollector) unsupported(call *ast.CallExpr, sel *ast.SelectorExpr) {
	if !c.n.Test {
		c.lf.unsupported = append(c.lf.unsupported,
			unsupportedFinding{n: c.n, pos: call.Pos(), call: types.ExprString(sel)})
	}
}

// derefType strips one level of pointer.
func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedDisplay renders a (possibly pointer-to) named type as
// "module-relative-pkg.TypeName", or "" for unnamed types.
func namedDisplay(t types.Type, module string) string {
	named, ok := derefType(t).(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return relModPath(obj.Pkg().Path(), module) + "." + obj.Name()
}

// relModPath renders a package path relative to the module, matching
// Node.String's display convention.
func relModPath(path, module string) string {
	if path == module {
		return lastSegment(module)
	}
	return strings.TrimPrefix(path, module+"/")
}

// hasCtxParam reports whether the signature takes a context.Context.
func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if named, ok := sig.Params().At(i).Type().(*types.Named); ok {
			obj := named.Obj()
			if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
				return true
			}
		}
	}
	return false
}

// blockingStdlibCall recognizes standard-library operations that can block:
// synchronization waits, sleeps, and a curated network/file I/O list.
// fmt.Fprint* counts only when the destination is not an in-memory buffer.
func blockingStdlibCall(info *types.Info, fn *types.Func, call *ast.CallExpr) (string, bool) {
	if fn.Pkg() == nil {
		return "", false
	}
	pkg, name := fn.Pkg().Path(), fn.Name()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		recv := recvBaseName(sig.Recv().Type())
		full := pkg + "." + recv + "." + name
		switch pkg {
		case "sync":
			if (recv == "WaitGroup" || recv == "Cond") && name == "Wait" {
				return full, true
			}
		case "io":
			switch recv {
			case "Reader", "Writer", "ReadWriter", "ReadCloser", "WriteCloser", "ReadWriteCloser":
				if name == "Read" || name == "Write" {
					return full + " (potentially blocking I/O)", true
				}
			}
		case "net":
			switch name {
			case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
				return full, true
			}
		case "net/http":
			if recv == "Client" {
				switch name {
				case "Do", "Get", "Post", "PostForm", "Head":
					return full, true
				}
			}
			if recv == "Server" {
				switch name {
				case "Serve", "ServeTLS", "ListenAndServe", "ListenAndServeTLS", "Shutdown":
					return full, true
				}
			}
			if recv == "ResponseWriter" && name == "Write" {
				return full + " (network write)", true
			}
		case "os":
			if recv == "File" {
				switch name {
				case "Read", "ReadAt", "Write", "WriteAt", "Sync", "ReadDir":
					return full, true
				}
			}
		case "os/exec":
			if recv == "Cmd" {
				switch name {
				case "Run", "Wait", "Output", "CombinedOutput":
					return full, true
				}
			}
		case "bufio":
			switch {
			case recv == "Writer" && (name == "Flush" || name == "Write" || name == "WriteString"),
				recv == "Reader" && (name == "Read" || name == "ReadString" || name == "ReadBytes"),
				recv == "Scanner" && name == "Scan":
				return full + " (I/O through the buffered stream)", true
			}
		}
		return "", false
	}
	switch pkg {
	case "time":
		if name == "Sleep" {
			return "time.Sleep", true
		}
	case "io":
		switch name {
		case "Copy", "CopyN", "CopyBuffer", "ReadAll", "ReadFull", "WriteString":
			return "io." + name, true
		}
	case "os":
		switch name {
		case "Open", "OpenFile", "Create", "ReadFile", "WriteFile", "ReadDir",
			"Remove", "RemoveAll", "Rename", "Mkdir", "MkdirAll", "Stat", "Lstat":
			return "os." + name, true
		}
	case "net":
		switch name {
		case "Dial", "DialTimeout", "Listen", "ListenPacket",
			"LookupHost", "LookupAddr", "LookupIP", "LookupPort":
			return "net." + name, true
		}
	case "net/http":
		switch name {
		case "Get", "Post", "PostForm", "Head",
			"ListenAndServe", "ListenAndServeTLS", "Serve", "ServeTLS":
			return "net/http." + name, true
		}
	case "fmt":
		switch name {
		case "Fprint", "Fprintf", "Fprintln":
			if len(call.Args) > 0 && !inMemoryWriter(info, call.Args[0]) {
				return "fmt." + name + " to a non-memory io.Writer", true
			}
		}
	}
	return "", false
}

// inMemoryWriter reports destinations that cannot block: bytes.Buffer and
// strings.Builder.
func inMemoryWriter(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	named, ok := derefType(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "bytes.Buffer", "strings.Builder":
		return true
	}
	return false
}

// computeSummaries seeds each node's may-acquire/may-block summary from its
// root unit (goroutine and callback units run elsewhere) and propagates
// transitively over statically resolved module calls to a fixpoint.
func (lf *LockFacts) computeSummaries() {
	nodes := lf.graph.Nodes()
	for _, n := range nodes {
		acq := map[string]*acqInfo{}
		for _, ev := range lf.rootEvents(n) {
			switch ev.kind {
			case evAcquire:
				if acq[ev.key] == nil {
					acq[ev.key] = &acqInfo{mode: ev.mode}
				}
			case evBlock:
				if lf.mayBlock[n.ID] == nil {
					lf.mayBlock[n.ID] = &blockInfo{desc: ev.block}
				}
			}
		}
		lf.mayAcquire[n.ID] = acq
	}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			acq := lf.mayAcquire[n.ID]
			for _, ev := range lf.rootEvents(n) {
				if ev.kind != evCall {
					continue
				}
				for _, key := range sortedKeys(lf.mayAcquire[ev.callee.ID]) {
					if acq[key] == nil {
						ci := lf.mayAcquire[ev.callee.ID][key]
						acq[key] = &acqInfo{mode: ci.mode, next: ev.callee}
						changed = true
					}
				}
				if lf.mayBlock[ev.callee.ID] != nil && lf.mayBlock[n.ID] == nil {
					lf.mayBlock[n.ID] = &blockInfo{next: ev.callee}
					changed = true
				}
			}
		}
	}
}

// rootEvents returns the node's root-unit events (same-goroutine behavior).
func (lf *LockFacts) rootEvents(n *Node) []lockEvent {
	us := lf.units[n.ID]
	if len(us) == 0 {
		return nil
	}
	return us[0].events
}

// sortedKeys returns the map's keys in sorted order for determinism.
func sortedKeys(m map[string]*acqInfo) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// heldWalk runs the held-set approximation over every unit of every
// non-test node, producing lock-order edges, self-acquisition findings and
// blocking-under-lock findings.
func (lf *LockFacts) heldWalk() {
	type heldLock struct {
		key   string
		mode  lockMode
		count int
	}
	seenEdge := map[string]bool{}
	for _, n := range lf.graph.Nodes() {
		if n.Test {
			continue
		}
		for _, u := range lf.units[n.ID] {
			var held []heldLock
			heldKeys := func() []string {
				out := make([]string, 0, len(held))
				for _, h := range held {
					out = append(out, h.key)
				}
				sort.Strings(out)
				return out
			}
			// acquire checks key, taken in mode at pos (through a call to via
			// when non-nil), against every held lock: the same key is a
			// self-acquisition, any other adds a deduplicated order edge. It
			// returns the index of key's held entry, or -1.
			acquire := func(key string, mode lockMode, pos token.Pos, via *Node) int {
				self := -1
				for i, h := range held {
					if h.key == key {
						lf.selfAcq = append(lf.selfAcq, selfAcqFinding{
							n: n, pos: pos, key: key,
							heldMode: h.mode, againMode: mode, via: via,
						})
						self = i
						continue
					}
					ek := h.key + "\x00" + key + "\x00" + n.ID
					if !seenEdge[ek] {
						seenEdge[ek] = true
						lf.edges = append(lf.edges, &LockEdge{From: h.key, To: key, N: n, Pos: pos, Via: via})
					}
				}
				return self
			}
			for _, ev := range u.events {
				switch ev.kind {
				case evAcquire:
					if i := acquire(ev.key, ev.mode, ev.pos, nil); i >= 0 {
						held[i].count++
					} else {
						held = append(held, heldLock{key: ev.key, mode: ev.mode, count: 1})
					}
				case evRelease:
					for i := len(held) - 1; i >= 0; i-- {
						if held[i].key == ev.key {
							held[i].count--
							if held[i].count == 0 {
								held = append(held[:i], held[i+1:]...)
							}
							break
						}
					}
				case evCall:
					if len(held) == 0 {
						continue
					}
					sum := lf.mayAcquire[ev.callee.ID]
					for _, key := range sortedKeys(sum) {
						acquire(key, sum[key].mode, ev.pos, ev.callee)
					}
					if lf.mayBlock[ev.callee.ID] != nil {
						lf.heldCalls = append(lf.heldCalls, heldCallFinding{
							n: n, pos: ev.pos, callee: ev.callee, held: heldKeys(),
						})
					}
				case evBlock:
					if len(held) > 0 {
						lf.heldCalls = append(lf.heldCalls, heldCallFinding{
							n: n, pos: ev.pos, op: ev.block, held: heldKeys(),
						})
					}
				}
			}
		}
	}
}

// computeCtxDrops flags non-test functions that declare a ctx parameter,
// never use it, and still do blocking or context-aware work.
func (lf *LockFacts) computeCtxDrops() {
	for _, n := range lf.graph.Nodes() {
		if n.Test || n.Decl.Body == nil || n.Decl.Type.Params == nil {
			continue
		}
		works := lf.wantsCtx[n.ID]
		if !works {
			for _, u := range lf.units[n.ID] {
				for _, ev := range u.events {
					if ev.kind == evBlock || ev.kind == evGo {
						works = true
					}
				}
			}
		}
		if !works {
			continue
		}
		info := n.Pkg.Info
		for _, field := range n.Decl.Type.Params.List {
			named, ok := derefType(info.TypeOf(field.Type)).(*types.Named)
			if !ok || named.Obj().Pkg() == nil ||
				named.Obj().Pkg().Path() != "context" || named.Obj().Name() != "Context" {
				continue
			}
			for _, nameID := range field.Names {
				if nameID.Name == "_" {
					continue
				}
				obj := info.Defs[nameID]
				if obj == nil {
					continue
				}
				used := false
				ast.Inspect(n.Decl.Body, func(nd ast.Node) bool {
					if id, ok := nd.(*ast.Ident); ok && info.Uses[id] == obj {
						used = true
					}
					return !used
				})
				if !used {
					lf.ctxDrops = append(lf.ctxDrops, ctxDropFinding{
						n: n, pos: nameID.Pos(), name: nameID.Name,
					})
				}
			}
		}
	}
}

// acquireChain renders the call chain from start to the function that
// directly acquires key, per the may-acquire sample links.
func (lf *LockFacts) acquireChain(start *Node, key string) string {
	names := []string{start.String()}
	cur := start
	for i := 0; i < 64; i++ {
		info := lf.mayAcquire[cur.ID][key]
		if info == nil || info.next == nil {
			break
		}
		cur = info.next
		names = append(names, cur.String())
	}
	return strings.Join(names, " -> ")
}

// blockPath renders what blocks and through whom, per the may-block links.
func (lf *LockFacts) blockPath(start *Node) (desc, chain string) {
	names := []string{start.String()}
	cur := lf.mayBlock[start.ID]
	for i := 0; cur != nil && i < 64; i++ {
		if cur.next == nil {
			return cur.desc, strings.Join(names, " -> ")
		}
		names = append(names, cur.next.String())
		cur = lf.mayBlock[cur.next.ID]
	}
	return "blocking operation", strings.Join(names, " -> ")
}
