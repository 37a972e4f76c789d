package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// mapEscape is one map-range statement whose iteration order escapes: into
// a slice (slice holds the appended variable's name) or into output writes
// (output true), unless a later statement in the same block sorts the
// collected slice. Go map iteration order is random per run, so such an
// escape makes results nondeterministic across identical runs; the call
// graph records each one as a detersafe fact.
type mapEscape struct {
	pos    token.Pos
	slice  string
	output bool
}

// what renders the escape as a detersafe fact description.
func (e mapEscape) what() string {
	if e.output {
		return "map iteration order escapes into output writes"
	}
	return fmt.Sprintf("map iteration order escapes into slice %q", e.slice)
}

// mapEscapes scans the statements of one block for map ranges whose
// iteration order escapes. Only direct children of the block are
// considered, so walking every BlockStmt of a file visits each range
// exactly once; the statements following the range in the same block are
// where a redeeming sort may appear.
func mapEscapes(info *types.Info, block *ast.BlockStmt) []mapEscape {
	var escapes []mapEscape
	for i, stmt := range block.List {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(info.TypeOf(rng.X)) {
			continue
		}
		escapes = append(escapes, rangeEscapes(info, rng, block.List[i+1:])...)
	}
	return escapes
}

// rangeEscapes inspects one map-range statement. rest holds the statements
// following it in the enclosing block, where a redeeming sort may appear.
func rangeEscapes(info *types.Info, rng *ast.RangeStmt, rest []ast.Stmt) []mapEscape {
	keyObj := rangeKeyObject(info, rng)
	appended := map[types.Object]bool{}
	writes := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && info.Uses[id] == types.Universe.Lookup("append") {
					if len(n.Lhs) > 0 {
						if indexedByKey(info, n.Lhs[0], keyObj) {
							continue // m[k] = append(m[k], ...) is per-key, order-independent
						}
						if obj := rootObject(info, n.Lhs[0]); obj != nil {
							appended[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			if isOutputCall(info, n) {
				writes = true
			}
		}
		return true
	})
	if writes {
		return []mapEscape{{pos: rng.Pos(), output: true}}
	}
	var escapes []mapEscape
	for obj := range appended {
		if !sortedLater(info, obj, rest) {
			escapes = append(escapes, mapEscape{pos: rng.Pos(), slice: obj.Name()})
		}
	}
	// Map iteration builds `appended` in nondeterministic order; sort the
	// escapes so diagnostics and call-graph facts are byte-stable.
	sortEscapes(escapes)
	return escapes
}

func sortEscapes(escapes []mapEscape) {
	for i := 1; i < len(escapes); i++ {
		for j := i; j > 0 && escapes[j].slice < escapes[j-1].slice; j-- {
			escapes[j], escapes[j-1] = escapes[j-1], escapes[j]
		}
	}
}

// sortedLater reports whether any statement in rest passes obj to a
// sort.* / slices.* call (directly or nested inside the statement).
func sortedLater(info *types.Info, obj types.Object, rest []ast.Stmt) bool {
	found := false
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok || (pkgID.Name != "sort" && pkgID.Name != "slices") {
				return true
			}
			for _, arg := range call.Args {
				if rootObject(info, arg) == obj {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// rangeKeyObject returns the object of the range statement's key variable,
// or nil.
func rangeKeyObject(info *types.Info, rng *ast.RangeStmt) types.Object {
	id, ok := rng.Key.(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id] // `for k = range` with a pre-declared variable
}

// indexedByKey reports whether e is an index expression whose index is the
// range key (writes to m[k] are per-key and therefore order-independent).
func indexedByKey(info *types.Info, e ast.Expr, keyObj types.Object) bool {
	if keyObj == nil {
		return false
	}
	ix, ok := e.(*ast.IndexExpr)
	if !ok {
		return false
	}
	id, ok := ix.Index.(*ast.Ident)
	return ok && info.Uses[id] == keyObj
}

// rootObject resolves the base identifier of an expression (x, x.f, x[i],
// &x, x.f[i].g ...) to its object.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isOutputCall reports calls that emit user-visible output: fmt.Print*/
// fmt.Fprint* and Write/WriteString methods.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkgID, ok := sel.X.(*ast.Ident); ok && pkgID.Name == "fmt" {
		if obj, ok := info.Uses[pkgID].(*types.PkgName); ok && obj.Imported().Path() == "fmt" {
			return strings.HasPrefix(sel.Sel.Name, "Print") || strings.HasPrefix(sel.Sel.Name, "Fprint")
		}
	}
	return sel.Sel.Name == "Write" || sel.Sel.Name == "WriteString"
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}
