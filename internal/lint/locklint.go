package lint

// The locklint suite: four interprocedural concurrency-safety analyzers over
// the shared lock-fact layer (lockfacts.go).
//
//   - lockorder: lock-acquisition-order cycles (potential deadlocks),
//     same-lock re-acquisition (direct or via a call chain), and
//     `defer mu.Unlock()` registered inside a loop.
//   - heldcall: blocking operations — channel ops outside a select with
//     default, WaitGroup.Wait, sleeps, network/file I/O, or calls into
//     functions that themselves block — executed while a lock is held.
//   - goleak: goroutines reachable from the serving-era entry points whose
//     bodies loop forever with no cancellation path (no channel or
//     ctx.Done receive anywhere in the body).
//   - ctxflow: request paths that drop the caller's context — a
//     context.Background()/TODO() reachable from an entry point, or a ctx
//     parameter received but never used by a function doing blocking or
//     context-aware work.
//
// lockorder and heldcall scan every non-test function in the module (a
// deadlock does not care how the code was reached); goleak and ctxflow are
// rooted at entry points, detersafe-style. Findings are suppressed with the
// standard //lint:ignore directive or recorded in lint.baseline.json like
// every other finding (kept empty: fix or carry a reasoned ignore instead).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockLintNames lists the locklint analyzer names — the group behind
// cmd/dimelint's `-only locklint` alias.
func LockLintNames() []string {
	return []string{"lockorder", "heldcall", "goleak", "ctxflow"}
}

// DefaultServeEntryPoints roots goleak at the serving-era surfaces: the
// module-root facade plus every exported function of the server, the
// resilient client and the fault injector.
var DefaultServeEntryPoints = []EntryPoint{
	{Pkg: "", Name: "*"},
	{Pkg: "internal/serve", Name: "*"},
	{Pkg: "internal/client", Name: "*"},
	{Pkg: "internal/fault", Name: "*"},
}

// DefaultCtxEntryPoints roots ctxflow at the serving surfaces plus the
// differential harness, whose replays must respect caller deadlines.
var DefaultCtxEntryPoints = []EntryPoint{
	{Pkg: "", Name: "*"},
	{Pkg: "internal/serve", Name: "*"},
	{Pkg: "internal/client", Name: "*"},
	{Pkg: "internal/fault", Name: "*"},
	{Pkg: "internal/difftest", Name: "*"},
}

// LockOrder is the lockorder analyzer: interprocedural lock-acquisition
// graph cycles and same-lock re-acquisition, reported as potential
// deadlocks with sample call chains.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "lock-acquisition-order cycle, same-lock re-acquisition, or deferred unlock in a loop: potential deadlock"
}

// Run implements Analyzer; lockorder is interprocedural, see RunModule.
func (LockOrder) Run(*Pass) {}

// RunModule implements ModuleAnalyzer.
func (LockOrder) RunModule(mp *ModulePass) {
	lf := mp.LockFacts()
	for _, f := range lf.deferLoop {
		mp.Reportf(f.pos, "defer releases %s inside a loop: the unlock only runs at function exit, so the next iteration deadlocks against it", f.key)
	}
	for _, f := range lf.selfAcq {
		what := "self-deadlock"
		switch {
		case f.heldMode == modeRead && f.againMode == modeRead:
			what = "deadlocks if a writer is waiting between the two RLocks"
		case f.heldMode == modeRead && f.againMode == modeWrite:
			what = "read-to-write upgrade: deadlocks against the held read lock"
		}
		if f.via != nil {
			mp.Reportf(f.pos, "%s may be %sed again via the call to %s while %s already holds it (%s then %s): %s (chain: %s)",
				f.key, f.againMode.verb(), f.via.String(), f.n.String(),
				f.heldMode.verb(), f.againMode.verb(), what, lf.acquireChain(f.via, f.key))
		} else {
			mp.Reportf(f.pos, "%s is %sed while %s already holds it (%s then %s): %s",
				f.key, f.againMode.verb(), f.n.String(), f.heldMode.verb(), f.againMode.verb(), what)
		}
	}
	// Acquisition-order cycles: strongly connected components of size > 1
	// on the deduplicated lock graph.
	adj := map[string][]string{}
	seen := map[string]bool{}
	for _, e := range lf.edges {
		k := e.From + "\x00" + e.To
		if !seen[k] {
			seen[k] = true
			adj[e.From] = append(adj[e.From], e.To)
		}
	}
	comp := sccComponents(adj)
	for _, e := range lf.edges {
		cf, ct := comp[e.From], comp[e.To]
		if cf == "" || cf != ct {
			continue
		}
		cycle := cycleMembers(comp, cf)
		via := ""
		if e.Via != nil {
			via = " via " + lf.acquireChain(e.Via, e.To)
		}
		mp.Reportf(e.Pos, "lock order inversion: %s acquired%s while %s holds %s, but another path acquires them in the opposite order (cycle: %s): potential deadlock",
			e.To, via, e.N.String(), e.From, strings.Join(cycle, " -> "))
	}
}

// sccComponents runs Tarjan's algorithm and returns, for every key in a
// strongly connected component of size > 1, the component's smallest member
// as its identifier ("" — absent — for keys outside any cycle).
func sccComponents(adj map[string][]string) map[string]string {
	keys := make([]string, 0, len(adj))
	inAdj := map[string]bool{}
	for k, outs := range adj {
		if !inAdj[k] {
			inAdj[k] = true
			keys = append(keys, k)
		}
		for _, o := range outs {
			if !inAdj[o] {
				inAdj[o] = true
				keys = append(keys, o)
			}
		}
	}
	sort.Strings(keys)
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next := 0
	comp := map[string]string{}
	var strongconnect func(v string)
	strongconnect = func(v string) {
		next++
		index[v], low[v] = next, next
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var members []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				members = append(members, w)
				if w == v {
					break
				}
			}
			if len(members) > 1 {
				sort.Strings(members)
				for _, m := range members {
					comp[m] = members[0]
				}
			}
		}
	}
	for _, k := range keys {
		if index[k] == 0 {
			strongconnect(k)
		}
	}
	return comp
}

// cycleMembers returns the sorted members of the component identified by id.
func cycleMembers(comp map[string]string, id string) []string {
	var out []string
	for k, c := range comp {
		if c == id {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// HeldCall is the heldcall analyzer: blocking operations under a held lock,
// the latency-amplification class that turns one slow request into a
// stalled pool.
type HeldCall struct{}

// Name implements Analyzer.
func (HeldCall) Name() string { return "heldcall" }

// Doc implements Analyzer.
func (HeldCall) Doc() string {
	return "blocking operation (channel op, Wait, sleep, network/file I/O, or a call that blocks) while holding a lock"
}

// Run implements Analyzer; heldcall is interprocedural, see RunModule.
func (HeldCall) Run(*Pass) {}

// RunModule implements ModuleAnalyzer.
func (HeldCall) RunModule(mp *ModulePass) {
	lf := mp.LockFacts()
	for _, f := range lf.heldCalls {
		held := strings.Join(f.held, ", ")
		if f.callee != nil {
			desc, chain := lf.blockPath(f.callee)
			mp.Reportf(f.pos, "call to %s may block (%s; chain: %s) while %s holds %s",
				f.callee.String(), desc, chain, f.n.String(), held)
		} else {
			mp.Reportf(f.pos, "%s while %s holds %s", f.op, f.n.String(), held)
		}
	}
}

// GoLeak is the goleak analyzer: goroutines spawned on paths reachable from
// the serving entry points whose bodies loop forever with no cancellation
// path.
type GoLeak struct {
	// Entries holds the roots; nil means DefaultServeEntryPoints.
	Entries []EntryPoint
}

// Name implements Analyzer.
func (GoLeak) Name() string { return "goleak" }

// Doc implements Analyzer.
func (GoLeak) Doc() string {
	return "goroutine reachable from a serving entry point runs an unbounded loop with no cancellation path (no channel or ctx.Done receive)"
}

// Run implements Analyzer; goleak is interprocedural, see RunModule.
func (GoLeak) Run(*Pass) {}

// RunModule implements ModuleAnalyzer.
func (a GoLeak) RunModule(mp *ModulePass) {
	entries := a.Entries
	if entries == nil {
		entries = DefaultServeEntryPoints
	}
	lf := mp.LockFacts()
	roots := entryNodes(mp.Graph, entries)
	visited, parent := reachableFrom(roots)
	ids := make([]string, 0, len(visited))
	for id := range visited {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := visited[id]
		for _, u := range lf.units[n.ID] {
			for _, ev := range u.events {
				if ev.kind != evGo {
					continue
				}
				var body ast.Node
				info := n.Pkg.Info
				switch {
				case ev.lit != nil:
					body = ev.lit.Body
				case ev.callee != nil && ev.callee.Decl.Body != nil:
					body = ev.callee.Decl.Body
					info = ev.callee.Pkg.Info
				default:
					continue
				}
				if !uncancellableLoop(info, body) {
					continue
				}
				mp.Reportf(ev.pos, "goroutine spawned in %s runs an unbounded loop with no cancellation path (no channel or ctx.Done receive anywhere in its body); it outlives the request — reachable from %s (chain: %s)",
					n.String(), rootOf(n, parent).String(), chainTo(n, parent))
			}
		}
	}
}

// uncancellableLoop reports a `for` loop with no condition in body while the
// whole body contains no channel receive of any kind (select cases and
// range-over-channel included — each is a cancellation or completion path).
func uncancellableLoop(info *types.Info, body ast.Node) bool {
	hasRecv := false
	hasLoop := false
	ast.Inspect(body, func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				hasRecv = true
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					hasRecv = true
				}
			}
		case *ast.ForStmt:
			if x.Cond == nil {
				hasLoop = true
			}
		}
		return !hasRecv
	})
	return hasLoop && !hasRecv
}

// CtxFlow is the ctxflow analyzer: request paths that drop the caller's
// context, so work outlives its deadline.
type CtxFlow struct {
	// Entries holds the roots; nil means DefaultCtxEntryPoints.
	Entries []EntryPoint
}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "request path drops the caller's context: context.Background()/TODO() reachable from an entry point, or a ctx parameter received but never used"
}

// Run implements Analyzer; ctxflow is interprocedural, see RunModule.
func (CtxFlow) Run(*Pass) {}

// RunModule implements ModuleAnalyzer.
func (a CtxFlow) RunModule(mp *ModulePass) {
	entries := a.Entries
	if entries == nil {
		entries = DefaultCtxEntryPoints
	}
	lf := mp.LockFacts()
	roots := entryNodes(mp.Graph, entries)
	visited, parent := reachableFrom(roots)
	ids := make([]string, 0, len(visited))
	for id := range visited {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := visited[id]
		for _, f := range lf.bgCalls[n.ID] {
			mp.Reportf(f.Pos, "%s in %s discards the caller's context on a path reachable from entry point %s (chain: %s); thread the caller's ctx through instead",
				f.What, n.String(), rootOf(n, parent).String(), chainTo(n, parent))
		}
	}
	for _, f := range lf.ctxDrops {
		if visited[f.n.ID] == nil {
			continue
		}
		mp.Reportf(f.pos, "parameter %q in %s is received but never used, yet the function does blocking or context-aware work; pass the caller's ctx to the downstream calls or drop the parameter",
			f.name, f.n.String())
	}
}
