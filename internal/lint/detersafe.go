package lint

import (
	"sort"
	"strings"
)

// EntryPoint names a function or method the interprocedural analyzers treat
// as a result-producing root: detersafe proves nondeterminism sources are
// unreachable from it.
type EntryPoint struct {
	// Pkg is a package-path suffix ("internal/core"); "" matches the module
	// root package.
	Pkg string
	// Name matches a function ("DiscoverAll"), a method ("Session.Result"),
	// or "*" for every exported non-test function of the package.
	Name string
}

// DefaultEntryPoints lists the module's result-producing API surface. The
// list is intentionally small and curated — these are the functions whose
// outputs the paper's scrollbar semantics promise to be reproducible — and
// everything else result-related is *derived* from it by call-graph
// reachability, not hand-maintained.
var DefaultEntryPoints = []EntryPoint{
	// Root facade: discovery, sessions, rule generation, profiling.
	{Pkg: "", Name: "Discover"},
	{Pkg: "", Name: "DiscoverBasic"},
	{Pkg: "", Name: "DiscoverAll"},
	{Pkg: "", Name: "DiscoverAllStats"},
	{Pkg: "", Name: "GenerateRules"},
	{Pkg: "", Name: "NewSession"},
	{Pkg: "", Name: "Profile"},
	{Pkg: "", Name: "RankBySeparability"},
	// Core algorithms behind the facade (callable directly in-module).
	{Pkg: "internal/core", Name: "DIME"},
	{Pkg: "internal/core", Name: "DIMEPlus"},
	{Pkg: "internal/core", Name: "DiscoverAll"},
	{Pkg: "internal/core", Name: "DiscoverAllStats"},
	{Pkg: "internal/core", Name: "NewSession"},
	{Pkg: "internal/core", Name: "Session.Add"},
	{Pkg: "internal/core", Name: "Session.Result"},
	// Rule generation emits ordered rule sets; the differential harness
	// emits comparison verdicts that must reproduce across runs.
	{Pkg: "internal/rulegen", Name: "*"},
	{Pkg: "internal/difftest", Name: "*"},
}

// matches reports whether the node is named by the entry point.
func (ep EntryPoint) matches(n *Node, module string) bool {
	if n.Test || n.Main {
		return false
	}
	if ep.Pkg == "" {
		if n.PkgPath != module {
			return false
		}
	} else if n.PkgPath != ep.Pkg && !strings.HasSuffix(n.PkgPath, "/"+ep.Pkg) {
		return false
	}
	if ep.Name == "*" {
		return n.Exported
	}
	key := n.Name
	if n.RecvName != "" {
		key = n.RecvName + "." + n.Name
	}
	return key == ep.Name
}

// entryNodes returns the graph nodes matching the entry points, sorted by ID.
func entryNodes(g *CallGraph, entries []EntryPoint) []*Node {
	var out []*Node
	for _, n := range g.Nodes() {
		for _, ep := range entries {
			if ep.matches(n, g.Module) {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// reachableFrom walks the graph forward from the entry nodes, skipping test
// declarations, and returns every visited node keyed by ID plus the
// deterministic BFS parent of each non-entry node (for sample call chains).
func reachableFrom(entries []*Node) (map[string]*Node, map[string]*Node) {
	visited := map[string]*Node{}
	parent := map[string]*Node{}
	queue := append([]*Node(nil), entries...)
	for _, n := range entries {
		visited[n.ID] = n
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			c := e.Callee
			if c.Test || visited[c.ID] != nil {
				continue
			}
			visited[c.ID] = c
			parent[c.ID] = n
			queue = append(queue, c)
		}
	}
	return visited, parent
}

// chainTo renders the entry-to-node call chain recorded by reachableFrom.
func chainTo(n *Node, parent map[string]*Node) string {
	var names []string
	for hop := n; hop != nil; hop = parent[hop.ID] {
		names = append(names, hop.String())
	}
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " -> ")
}

// DeterSafe is the detersafe analyzer: taint analysis proving the
// result-producing entry points cannot transitively reach a nondeterminism
// source — wall-clock reads, the process-global RNG, environment reads, map
// iteration whose order escapes into results, or goroutine fan-out that
// writes shared state without per-index slots. A finding is reported at the
// source site with the entry it taints and a sample call chain; suppressing
// it there (//lint:ignore detersafe <reason>) accepts the source for every
// entry that reaches it.
type DeterSafe struct {
	// Entries holds the result-producing roots; nil means DefaultEntryPoints.
	Entries []EntryPoint
}

// Name implements Analyzer.
func (DeterSafe) Name() string { return "detersafe" }

// Doc implements Analyzer.
func (DeterSafe) Doc() string {
	return "nondeterminism source (wall clock, global RNG, env, map-order escape, unordered goroutine fan-out) reachable from a result-producing entry point"
}

// Run implements Analyzer.
func (a DeterSafe) Run(mp *ModulePass) {
	entries := a.Entries
	if entries == nil {
		entries = DefaultEntryPoints
	}
	roots := entryNodes(mp.Graph, entries)
	visited, parent := reachableFrom(roots)
	ids := make([]string, 0, len(visited))
	for id := range visited {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		n := visited[id]
		for _, f := range n.Nondet {
			mp.Reportf(f.Pos, "%s in %s is reachable from result entry point %s; results must not depend on it (chain: %s)",
				f.What, n.String(), rootOf(n, parent).String(), chainTo(n, parent))
		}
	}
}

// rootOf follows BFS parents back to the entry node that reached n.
func rootOf(n *Node, parent map[string]*Node) *Node {
	for parent[n.ID] != nil {
		n = parent[n.ID]
	}
	return n
}
