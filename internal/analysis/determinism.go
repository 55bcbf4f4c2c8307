package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The determinism analyzer. The engine promises bit-identical output
// for identical input: SGB arbitration resolves ties by a strict
// (Key, A, B) total order, SGB-Any's components are a pure function
// of the data, and the wire protocol serializes result rows
// in a defined order. Three things quietly break that promise — map
// iteration order feeding anything ordered, wall-clock reads in
// result-affecting code, and draws from the global math/rand state.
// The analyzer bans all three in the result-affecting packages; a
// range over a map that is genuinely order-insensitive (feeding a
// commutative fold, or sorted immediately after) is silenced in
// place with a //sgblint:allow determinism marker stating that.

// Determinism bans map-order, wall-clock, and global-rand
// nondeterminism in result-affecting packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no map-iteration order, time.Now, or global math/rand in result-affecting packages",
	Run:  runDeterminism,
}

// determinismScopes lists the import-path suffixes of the
// result-affecting packages.
var determinismScopes = []string{
	"/internal/core",
	"/internal/exec",
	"/internal/partition",
}

// inDeterminismScope reports whether the package is result-affecting:
// the module root (the engine package itself) or one of the listed
// subsystems.
func inDeterminismScope(prog *Program, pkg *Package) bool {
	if pkg.Path == prog.ModulePath {
		return true
	}
	for _, s := range determinismScopes {
		if strings.HasSuffix(pkg.Path, s) {
			return true
		}
	}
	return false
}

func runDeterminism(pass *Pass) {
	if !inDeterminismScope(pass.Prog, pass.Pkg) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if tv, ok := info.Types[n.X]; ok {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						pass.Reportf(n.Pos(), "map iteration order is nondeterministic; sort keys first or justify with //sgblint:allow determinism")
					}
				}
			case *ast.CallExpr:
				if fn := calledFunc(info, n); fn != nil {
					checkDeterminismCall(pass, n, fn)
				}
			}
			return true
		})
	}
}

// calledFunc resolves the called function object, if statically known.
func calledFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	return staticCallee(info, call)
}

// randDrawExempt lists math/rand functions that construct generators
// rather than draw from the shared global source; local generators
// seeded deterministically are fine.
var randDrawExempt = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func checkDeterminismCall(pass *Pass, call *ast.CallExpr, fn *types.Func) {
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	// Methods on a locally constructed *rand.Rand are deterministic
	// when the seed is; only package-level draws hit the global state.
	if fn.Type().(*types.Signature).Recv() != nil {
		return
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(call.Pos(), "time.Now in result-affecting code; results must be a pure function of the input")
		}
	case "math/rand", "math/rand/v2":
		if !randDrawExempt[fn.Name()] {
			pass.Reportf(call.Pos(), "global math/rand draw (%s.%s) in result-affecting code; use a locally seeded rand.Rand", pkg.Path(), fn.Name())
		}
	}
}
