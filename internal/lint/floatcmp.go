package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FloatCmp is the float-threshold analyzer. Similarity values are float64s
// built from divisions and square roots, so exact comparison against another
// float or a rule threshold is a latent bug: a value mathematically equal to
// the threshold may sit a few ULPs away. The analyzer flags
//
//   - `==` / `!=` where either operand is a float (typed or untyped), and
//   - `>=` / `<=` where one operand is a rule threshold (a selector or
//     identifier named "Threshold"/"threshold"/"theta"/"sigma"),
//
// everywhere except internal/sim, which hosts the designated epsilon helpers
// (sim.Eq, sim.AtLeast, sim.AtMost) that such comparisons must go through.
type FloatCmp struct{}

// Name implements Analyzer.
func (FloatCmp) Name() string { return "float-threshold" }

// Doc implements Analyzer.
func (FloatCmp) Doc() string {
	return "exact ==/!= on floats, or raw >=/<= against rule thresholds, outside the sim epsilon helpers"
}

// Run implements Analyzer.
func (FloatCmp) Run(mp *ModulePass) {
	for _, pkg := range mp.Pkgs {
		if strings.HasSuffix(strings.TrimSuffix(pkg.Path, ".test"), "internal/sim") {
			continue // the epsilon helpers themselves live here
		}
		info := pkg.Info
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				bin, ok := n.(*ast.BinaryExpr)
				if !ok {
					return true
				}
				switch bin.Op {
				case token.EQL, token.NEQ:
					if isZeroConst(info, bin.X) || isZeroConst(info, bin.Y) {
						return true // exact-zero sentinels and divide-by-zero guards are exact by nature
					}
					if isFloat(info.TypeOf(bin.X)) || isFloat(info.TypeOf(bin.Y)) {
						mp.Reportf(bin.OpPos, "exact %s on float values; use sim.Eq (epsilon %s) instead", bin.Op, "1e-9")
					}
				case token.GEQ, token.LEQ:
					if isZeroConst(info, bin.X) || isZeroConst(info, bin.Y) {
						return true // θ ≤ 0 style range guards, not threshold matching
					}
					if (isThresholdExpr(bin.X) || isThresholdExpr(bin.Y)) &&
						(isFloat(info.TypeOf(bin.X)) || isFloat(info.TypeOf(bin.Y))) {
						helper := "sim.AtLeast"
						if bin.Op == token.LEQ {
							helper = "sim.AtMost"
						}
						mp.Reportf(bin.OpPos, "raw %s against a rule threshold; use %s for epsilon-tolerant comparison", bin.Op, helper)
					}
				}
				return true
			})
		}
	}
}

// isZeroConst reports whether the expression is a compile-time constant
// equal to zero (0 is exactly representable, so comparing against it is not
// an epsilon hazard).
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isThresholdExpr reports whether the expression names a rule threshold.
func isThresholdExpr(e ast.Expr) bool {
	var name string
	switch x := e.(type) {
	case *ast.SelectorExpr:
		name = x.Sel.Name
	case *ast.Ident:
		name = x.Name
	default:
		return false
	}
	switch name {
	case "Threshold", "threshold", "theta", "sigma":
		return true
	}
	return false
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}
