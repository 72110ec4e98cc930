// Package analyzers holds the ctqo-lint checks that keep the simulator
// reproducible and fast: no wall-clock reads in simulated-time packages,
// no global (or time-seeded) math/rand, no order-dependent map iteration
// feeding reports, nil-safe tracer methods so disabled tracing stays
// free, no writes through shared Config pointer fields or captured state
// in worker-run closures (sharedmut, a cross-package facts analysis), no
// enum switches that silently drop members (exhaustive), no multi-case
// selects in sim-time packages (chanselect) — plus the performance
// family enforcing the hot-path allocation contract (DESIGN.md §12):
// allocs (bottom-up cross-package AllocsFact summaries), hotpath
// (//lint:hotpath functions must have an allocation-free transitive call
// graph, within an optional allocs=N budget) and deferloop (no defer or
// named-return closures in hot loops) — and the interprocedural family
// built on the analysis package's call-graph engine: purity (//lint:pure
// functions and //lint:nocapturewrite closures must reach no shared
// write, I/O or nondeterminism, with the call chain rendered), goroleak
// (every goroutine spawned by the sweep runner or live harness needs a
// visible join) and floatdet (no order-dependent float accumulation or
// comparison where numbers must replay bit-for-bit).
//
// The checks encode the repo's determinism contract (see DESIGN.md):
// the paper's CTQO results are only reproducible if a fixed seed replays
// bit-for-bit, so the properties are enforced mechanically rather than by
// review. Every analyzer honours a "//lint:allow <name>" comment on the
// flagged line or the line above it.
package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// All returns the full suite in stable order. Allocs precedes Hotpath so
// same-package facts are exported before the annotations are checked
// (drivers also honour Hotpath's Requires when the list is filtered).
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		Wallclock, Seededrand, Maporder, Nilsafe,
		Sharedmut, Exhaustive, Chanselect,
		Allocs, Hotpath, Deferloop,
		Purity, Goroleak, Floatdet,
	}
}

// funcUse resolves an identifier to the package-level function it uses,
// or nil if it is anything else (variable, type, method, builtin...).
func funcUse(info *types.Info, id *ast.Ident) *types.Func {
	fn, ok := info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		// Methods share names with the package-level API (e.g.
		// (*rand.Rand).Intn, (time.Time).After); they are fine.
		return nil
	}
	return fn
}

// usesPkgFunc reports whether the subtree contains a reference to one of
// the named package-level functions of pkgPath.
func usesPkgFunc(info *types.Info, n ast.Node, pkgPath string, names map[string]bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if fn := funcUse(info, id); fn != nil && fn.Pkg().Path() == pkgPath && names[fn.Name()] {
			found = true
		}
		return !found
	})
	return found
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// noCaptureClosures calls visit for every function literal in f assigned
// to a //lint:nocapturewrite field, in either form: a field store
// (x.Tweak = func...) or a keyed composite literal (Config{Tweak: func...}).
// sharedmut checks these closures' captured writes and purity treats them
// as roots.
func noCaptureClosures(pass *analysis.Pass, f *ast.File, visit func(field *ast.Ident, lit *ast.FuncLit)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				sel, ok := unparen(lhs).(*ast.SelectorExpr)
				if !ok || !isNoCaptureField(pass, sel.Sel) {
					continue
				}
				if lit, ok := unparen(n.Rhs[i]).(*ast.FuncLit); ok {
					visit(sel.Sel, lit)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok || !isNoCaptureField(pass, key) {
					continue
				}
				if lit, ok := unparen(kv.Value).(*ast.FuncLit); ok {
					visit(key, lit)
				}
			}
		}
		return true
	})
}

// isNoCaptureField reports whether id resolves to a field carrying a
// NoCaptureWriteFact.
func isNoCaptureField(pass *analysis.Pass, id *ast.Ident) bool {
	obj, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	var fact NoCaptureWriteFact
	return pass.ImportObjectFact(obj, &fact)
}

// directiveAllows parses one comment's text with the driver's
// //lint:allow grammar and reports whether it names the given analyzer.
// Analyzers that consume suppressions at fact-construction time (allocs,
// purity) use it to strip sites before their facts propagate.
func directiveAllows(text, name string) bool {
	rest, ok := strings.CutPrefix(text, "//lint:allow")
	if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '\t') {
		return false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return false
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n == name {
			return true
		}
	}
	return false
}

// allowedLinesFor collects the lines carrying //lint:allow directives
// naming the analyzer, mapped to the directive comment's position (so
// consumption can be reported to the driver's stale-suppression audit).
func allowedLinesFor(pass *analysis.Pass, name string) map[string]map[int]token.Pos {
	out := make(map[string]map[int]token.Pos)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !directiveAllows(c.Text, name) {
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				lines := out[pos.Filename]
				if lines == nil {
					lines = make(map[int]token.Pos)
					out[pos.Filename] = lines
				}
				lines[pos.Line] = c.Pos()
			}
		}
	}
	return out
}

// consumeAllow reports whether a site at pos is covered by an allow
// directive (own line or the line above) in the allowed table, notifying
// the driver's audit hook when it is.
func consumeAllow(pass *analysis.Pass, allowed map[string]map[int]token.Pos, pos token.Pos, name string) bool {
	p := pass.Fset.Position(pos)
	lines := allowed[p.Filename]
	if lines == nil {
		return false
	}
	for _, line := range []int{p.Line, p.Line - 1} {
		if cpos, ok := lines[line]; ok {
			pass.MarkAllowUsed(cpos, name)
			return true
		}
	}
	return false
}
