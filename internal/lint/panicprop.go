package lint

import (
	"strings"
)

// PanicProp is the panicprop analyzer: library code must return errors, not
// panic — a panic inside Discover or a generator takes down a whole serving
// process. It reports two things, outside the two sanctioned conventions (the
// panicking function runs under a deferred recover, or its MustX name
// documents the panic as its contract):
//
//   - every direct builtin panic in non-test code, at the panic site;
//   - every exported library function or method from which such a panic is
//     reachable through the call graph, at its declaration.
//
// A direct panic in an exported function is reported once, at the panic
// site. A //lint:ignore panicprop suppression on a panic site silences the
// direct finding but does not stop propagation: callers of that function
// still surface the reachability unless they are themselves suppressed or
// behind a recover/MustX boundary.
type PanicProp struct{}

// Name implements Analyzer.
func (PanicProp) Name() string { return "panicprop" }

// Doc implements Analyzer.
func (PanicProp) Doc() string {
	return "panic in library code, or exported API from which one is transitively reachable, outside recover/MustX conventions"
}

// Run implements Analyzer.
func (PanicProp) Run(mp *ModulePass) {
	nodes := mp.Graph.Nodes()

	// canPanic[n]: a panic can escape out of a call to n. Computed as a
	// monotone fixpoint so cycles converge: absorbers (MustX names, deferred
	// recover) never escape a panic; otherwise a direct panic or any
	// escaping callee makes n escape.
	canPanic := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			if canPanic[n.ID] || isPanicAbsorber(n) {
				continue
			}
			escaped := len(n.Panics) > 0
			for _, e := range n.Out {
				if canPanic[e.Callee.ID] {
					escaped = true
					break
				}
			}
			if escaped {
				canPanic[n.ID] = true
				changed = true
			}
		}
	}

	for _, n := range nodes {
		if n.Test || isPanicAbsorber(n) {
			continue
		}
		for _, pos := range n.Panics {
			mp.Reportf(pos, "panic in library function %s; return an error or move the panic into a Must* constructor", n.Name)
		}
		if !n.Exported || n.Main {
			continue
		}
		for _, e := range n.Out {
			if !canPanic[e.Callee.ID] {
				continue
			}
			// Point at the function declaration, not the call site: the
			// finding is about n's exported contract.
			mp.Reportf(n.Decl.Name.Pos(), "exported %s can reach panic via %s (chain: %s); return an error or absorb the panic behind recover/MustX",
				n.String(), e.Callee.String(), panicChain(n, e.Callee, canPanic))
			break
		}
	}
}

// isPanicAbsorber reports whether panics never escape a call to n: a
// deferred recover catches them, or the MustX name documents the panic as
// the function's contract.
func isPanicAbsorber(n *Node) bool {
	return n.Recovers || strings.HasPrefix(n.Name, "Must")
}

// panicChain renders a deterministic sample path from via to a direct panic
// site, following the first canPanic edge at each hop (edges are in source
// order, so the path is stable across runs).
func panicChain(from, via *Node, canPanic map[string]bool) string {
	names := []string{from.String()}
	seen := map[string]bool{from.ID: true}
	for n := via; n != nil && !seen[n.ID]; {
		seen[n.ID] = true
		names = append(names, n.String())
		if len(n.Panics) > 0 {
			break
		}
		var next *Node
		for _, e := range n.Out {
			if canPanic[e.Callee.ID] && !seen[e.Callee.ID] {
				next = e.Callee
				break
			}
		}
		n = next
	}
	return strings.Join(names, " -> ")
}
