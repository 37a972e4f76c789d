package lint

import (
	"go/ast"
	"go/types"
)

// ErrCheck is the errcheck-lite analyzer: it flags calls to this module's
// own error-returning functions (rules.Parse, entity.NewEntity, the readers
// and writers behind dime's IO surface, ...) whose error result is silently
// dropped — a bare expression statement, or a `go` / `defer` of such a
// call. Assigning the error to `_` is the explicit, visible opt-out and is
// not flagged. Standard-library calls are out of scope: the module's own
// contracts are what DIME's correctness rests on.
type ErrCheck struct{}

// Name implements Analyzer.
func (ErrCheck) Name() string { return "errcheck-lite" }

// Doc implements Analyzer.
func (ErrCheck) Doc() string {
	return "dropped error results from this module's own functions"
}

// Run implements Analyzer.
func (ErrCheck) Run(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var call *ast.CallExpr
				switch stmt := n.(type) {
				case *ast.ExprStmt:
					call, _ = stmt.X.(*ast.CallExpr)
				case *ast.GoStmt:
					call = stmt.Call
				case *ast.DeferStmt:
					call = stmt.Call
				}
				if call == nil {
					return true
				}
				fn := staticCallee(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || !inModule(fn.Pkg().Path(), mp.Module) {
					return true
				}
				if _, ok := errorResult(fn); ok {
					mp.Reportf(call.Pos(), "error result of %s.%s dropped; handle it or assign to _ explicitly", fn.Pkg().Name(), fn.Name())
				}
				return true
			})
		}
	}
}

// staticCallee resolves the called function object, looking through method
// values and package selectors. Returns nil for builtins, type conversions
// and indirect calls through function values.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// errorResult reports whether fn returns an error and at which result index.
func errorResult(fn *types.Func) (int, bool) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return 0, false
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isErrorType(results.At(i).Type()) {
			return i, true
		}
	}
	return 0, false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
