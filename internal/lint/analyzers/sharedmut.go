package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"ctqosim/internal/lint/analysis"
)

// sharedPtrMarker annotates a pointer-typed struct field whose pointee is
// shared across Runner workers (core.Config's Mix, Kernel, Consolidation,
// LogFlush, GCPause): runs may read through it freely, but a write
// through it would leak from one run into every concurrent run sharing
// the Config, silently skewing tail statistics.
const sharedPtrMarker = "//lint:sharedptr"

// noCaptureWriteMarker annotates a func-typed struct field whose closures
// execute on worker goroutines (core.Config's Tweak): the closure may
// mutate its own parameters (per-run state handed to it) but must not
// write variables captured from the enclosing scope, including
// package-level variables.
const noCaptureWriteMarker = "//lint:nocapturewrite"

// SharedPtrFact marks a struct field (a *types.Var) as shared-read-only:
// declared with a //lint:sharedptr comment. Dependent packages import it
// to recognize the field through their own selector expressions.
type SharedPtrFact struct{}

// AFact implements analysis.Fact.
func (*SharedPtrFact) AFact() {}

// NoCaptureWriteFact marks a func-typed struct field (a *types.Var)
// declared with a //lint:nocapturewrite comment.
type NoCaptureWriteFact struct{}

// AFact implements analysis.Fact.
func (*NoCaptureWriteFact) AFact() {}

// MutatesFact is the bottom-up mutation summary of a function: the
// positions of its inputs it may write through, directly or transitively
// via callees. Position 0 is the receiver when the function is a method;
// parameters follow (so a plain function's first parameter is position
// 0, a method's is position 1). "Write through" means a store that lands
// in memory reachable from the argument — through a pointer, slice or
// map — so passing a shared pointer to a function with that position in
// its fact mutates shared state.
type MutatesFact struct {
	// Positions is sorted ascending.
	Positions []int
}

// AFact implements analysis.Fact.
func (*MutatesFact) AFact() {}

// Sharedmut enforces the shared-Config half of the worker-pool
// determinism contract (DESIGN.md §8–9): no run-time code may write
// through a //lint:sharedptr field, and //lint:nocapturewrite closures
// may not write captured state. It is a facts-propagating analysis — a
// mutation two packages below the offending call site is still caught,
// because every function's mutation summary travels with its object.
var Sharedmut = &analysis.Analyzer{
	Name: "sharedmut",
	Doc: "forbid writes through //lint:sharedptr Config fields (directly, " +
		"via aliases, or via callees whose mutation facts say they write " +
		"their argument) and captured-state writes in //lint:nocapturewrite " +
		"closures",
	FactTypes: []analysis.Fact{
		new(SharedPtrFact), new(NoCaptureWriteFact), new(MutatesFact),
	},
	Run: runSharedmut,
}

func runSharedmut(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	s := &sharedmutState{pass: pass}
	s.exportMarkedFields()
	s.collectFunctions()
	s.computeSummaries()
	s.checkBodies()
	return nil, nil
}

// sharedmutState carries one package's analysis.
type sharedmutState struct {
	pass *analysis.Pass
	// funcs are the package's function declarations with bodies, in file
	// order (the fixpoint iteration order, deterministic).
	funcs []*funcSummary
	// byObj resolves same-package callees to their in-progress summary.
	byObj map[*types.Func]*funcSummary
}

// funcSummary is the in-progress mutation summary of one function.
type funcSummary struct {
	fn   *types.Func
	decl *ast.FuncDecl
	// paramIdx maps the receiver (position 0 for methods) and parameters
	// to their fact positions.
	paramIdx map[types.Object]int
	mutated  map[int]bool
}

// markedComment reports whether a comment group contains the marker as a
// whole line.
func markedComment(marker string, groups ...*ast.CommentGroup) bool {
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if c.Text == marker {
				return true
			}
		}
	}
	return false
}

// exportMarkedFields finds //lint:sharedptr and //lint:nocapturewrite
// struct fields declared in this package and exports their facts.
func (s *sharedmutState) exportMarkedFields() {
	for _, f := range s.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				shared := markedComment(sharedPtrMarker, field.Doc, field.Comment)
				noCapture := markedComment(noCaptureWriteMarker, field.Doc, field.Comment)
				if !shared && !noCapture {
					continue
				}
				for _, name := range field.Names {
					obj, ok := s.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					if shared {
						if _, ok := obj.Type().Underlying().(*types.Pointer); !ok {
							s.pass.Reportf(name.Pos(),
								"//lint:sharedptr on non-pointer field %s: the marker guards writes through a shared pointer", name.Name)
							continue
						}
						s.pass.ExportObjectFact(obj, new(SharedPtrFact))
					}
					if noCapture {
						if _, ok := obj.Type().Underlying().(*types.Signature); !ok {
							s.pass.Reportf(name.Pos(),
								"//lint:nocapturewrite on non-func field %s: the marker guards worker-run closures", name.Name)
							continue
						}
						s.pass.ExportObjectFact(obj, new(NoCaptureWriteFact))
					}
				}
			}
			return true
		})
	}
}

// collectFunctions gathers the package's function declarations.
func (s *sharedmutState) collectFunctions() {
	s.byObj = make(map[*types.Func]*funcSummary)
	for _, f := range s.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := s.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sum := &funcSummary{
				fn:       fn,
				decl:     fd,
				paramIdx: make(map[types.Object]int),
				mutated:  make(map[int]bool),
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok {
				continue
			}
			pos := 0
			if recv := sig.Recv(); recv != nil {
				sum.paramIdx[recv] = pos
				pos++
			}
			for i := 0; i < sig.Params().Len(); i++ {
				sum.paramIdx[sig.Params().At(i)] = pos
				pos++
			}
			s.funcs = append(s.funcs, sum)
			s.byObj[fn] = sum
		}
	}
}

// mutatedPositions resolves a callee's mutation summary: same-package
// summaries first (they may still be converging), then imported facts.
func (s *sharedmutState) mutatedPositions(fn *types.Func) []int {
	if sum, ok := s.byObj[fn]; ok {
		out := make([]int, 0, len(sum.mutated))
		for p := range sum.mutated {
			out = append(out, p)
		}
		sort.Ints(out)
		return out
	}
	var fact MutatesFact
	if s.pass.ImportObjectFact(fn, &fact) {
		return fact.Positions
	}
	return nil
}

// computeSummaries iterates the package's functions to a fixpoint (for
// same-package mutual recursion) and exports the resulting facts.
func (s *sharedmutState) computeSummaries() {
	for changed := true; changed; {
		changed = false
		for _, sum := range s.funcs {
			if s.scanSummary(sum) {
				changed = true
			}
		}
	}
	for _, sum := range s.funcs {
		if len(sum.mutated) == 0 {
			continue
		}
		positions := make([]int, 0, len(sum.mutated))
		for p := range sum.mutated {
			positions = append(positions, p)
		}
		sort.Ints(positions)
		s.pass.ExportObjectFact(sum.fn, &MutatesFact{Positions: positions})
	}
}

// scanSummary recomputes one function's mutated set and reports whether
// it grew.
func (s *sharedmutState) scanSummary(sum *funcSummary) bool {
	grew := false
	mark := func(e ast.Expr) {
		obj, reaches := s.argReach(e)
		if obj == nil || !reaches {
			return
		}
		if idx, ok := sum.paramIdx[obj]; ok && !sum.mutated[idx] {
			sum.mutated[idx] = true
			grew = true
		}
	}
	ast.Inspect(sum.decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if obj, shared := storeRoot(s.pass.TypesInfo, lhs); obj != nil && shared {
					if idx, ok := sum.paramIdx[obj]; ok && !sum.mutated[idx] {
						sum.mutated[idx] = true
						grew = true
					}
				}
			}
		case *ast.IncDecStmt:
			if obj, shared := storeRoot(s.pass.TypesInfo, n.X); obj != nil && shared {
				if idx, ok := sum.paramIdx[obj]; ok && !sum.mutated[idx] {
					sum.mutated[idx] = true
					grew = true
				}
			}
		case *ast.UnaryExpr:
			// Taking the address of memory reachable from a parameter
			// lets the pointer escape to writers the summary cannot see;
			// count it as a potential mutation.
			if n.Op == token.AND {
				mark(n)
			}
		case *ast.CallExpr:
			callee, recv := calleeFunc(s.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			for _, pos := range s.mutatedPositions(callee) {
				if e := callArgAt(callee, recv, n, pos); e != nil {
					mark(e)
				}
			}
		}
		return true
	})
	return grew
}

// storeRoot walks an lvalue (or argument) chain to its base object and
// reports whether the chain passes through a pointer, slice or map — i.e.
// whether a write at the end of the chain lands in memory shared with
// whoever supplied the base value, rather than in a local copy.
func storeRoot(info *types.Info, e ast.Expr) (types.Object, bool) {
	shared := false
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			shared = true
			e = x.X
		case *ast.SelectorExpr:
			if base, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.Uses[base].(*types.PkgName); isPkg {
					// Qualified package-level variable: the selected
					// object is the root.
					return info.Uses[x.Sel], shared
				}
			}
			if isRefUnderlying(typeOf(info, x.X)) {
				shared = true // implicit deref: field of a pointer
			}
			e = x.X
		case *ast.IndexExpr:
			if isRefUnderlying(typeOf(info, x.X)) {
				shared = true // slice and map elements share backing
			}
			e = x.X
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			return obj, shared
		default:
			return nil, shared
		}
	}
}

// typeOf returns the type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	tv, ok := info.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// isRefUnderlying reports whether t's underlying type shares memory with
// copies of the value: pointer, slice or map.
func isRefUnderlying(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// argReach resolves an argument expression to its base object and whether
// a callee writing through the passed value reaches memory owned by that
// base: the chain itself passes through a reference, or the passed value
// is reference-typed (a pointer, slice or map hands the callee shared
// memory directly).
func (s *sharedmutState) argReach(e ast.Expr) (types.Object, bool) {
	e = unparen(e)
	reaches := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = unparen(u.X)
		reaches = true // the callee gets the address itself
	}
	if isRefUnderlying(typeOf(s.pass.TypesInfo, e)) {
		reaches = true
	}
	obj, shared := storeRoot(s.pass.TypesInfo, e)
	return obj, reaches || shared
}

// calleeFunc resolves a call to its static callee (analysis.StaticCallee)
// and, for method calls, the receiver expression too (fact position 0).
func calleeFunc(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	fn := analysis.StaticCallee(info, call)
	if fn == nil {
		return nil, nil
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok {
		if selection, ok := info.Selections[sel]; ok && selection.Kind() == types.MethodVal {
			return fn, sel.X
		}
	}
	return fn, nil
}

// callArgAt maps a callee fact position back to the call-site expression
// occupying it, or nil when the call shape does not supply one (e.g. a
// variadic position with no argument).
func callArgAt(callee *types.Func, recv ast.Expr, call *ast.CallExpr, pos int) ast.Expr {
	if recv != nil {
		if pos == 0 {
			return recv
		}
		pos--
	}
	if pos < len(call.Args) {
		return call.Args[pos]
	}
	// A variadic final parameter covers every trailing argument; point at
	// the last one if present.
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Variadic() && len(call.Args) > 0 {
		return call.Args[len(call.Args)-1]
	}
	return nil
}

// sharedFieldIn walks an expression's selection chain and returns the
// name of the first //lint:sharedptr field it passes through, or "".
// skipWhole excludes the case where the expression IS the field selection
// itself (a store to the field — replacing the pointer — is legal; only
// writes through it are not).
func (s *sharedmutState) sharedFieldIn(e ast.Expr, skipWhole bool) string {
	first := true
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
			first = false
		case *ast.IndexExpr:
			e = x.X
			first = false
		case *ast.SelectorExpr:
			if sel, ok := s.pass.TypesInfo.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if obj, ok := sel.Obj().(*types.Var); ok {
					var fact SharedPtrFact
					if s.pass.ImportObjectFact(obj, &fact) && !(first && skipWhole) {
						return obj.Name()
					}
				}
			}
			e = x.X
			first = false
		default:
			return ""
		}
	}
}

// checkBodies runs the two flagging passes over every function body:
// writes that reach a shared pointer field, and captured-state writes in
// no-capture-write closures.
func (s *sharedmutState) checkBodies() {
	for _, sum := range s.funcs {
		s.checkSharedWrites(sum.decl.Body)
	}
	// Closures assigned to marked fields can appear outside function
	// bodies too (package-level composite literals).
	for _, f := range s.pass.Files {
		noCaptureClosures(s.pass, f, func(_ *ast.Ident, lit *ast.FuncLit) {
			s.checkCaptures(lit)
		})
	}
}

// checkSharedWrites flags every way a function body writes through a
// shared pointer field: direct stores, stores through a local alias, and
// passing the field (or an alias) to a callee whose fact says it writes
// that position.
func (s *sharedmutState) checkSharedWrites(body *ast.BlockStmt) {
	aliases := s.collectAliases(body)
	aliasField := func(e ast.Expr) (string, bool) {
		obj, _ := storeRoot(s.pass.TypesInfo, unparen(e))
		field, ok := aliases[obj]
		return field, ok && obj != nil
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				s.flagStore(lhs, n.Tok, aliasField)
			}
		case *ast.IncDecStmt:
			s.flagStore(n.X, token.ASSIGN, aliasField)
		case *ast.CallExpr:
			callee, recv := calleeFunc(s.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			for _, pos := range s.mutatedPositions(callee) {
				e := callArgAt(callee, recv, n, pos)
				if e == nil {
					continue
				}
				arg := unparen(e)
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = unparen(u.X)
				}
				if field := s.sharedFieldIn(arg, false); field != "" {
					s.pass.Reportf(e.Pos(),
						"shared pointer field %s passed to %s, which may write through it: runs must only read //lint:sharedptr state",
						field, callee.Name())
				} else if field, ok := aliasField(arg); ok {
					s.pass.Reportf(e.Pos(),
						"alias of shared pointer field %s passed to %s, which may write through it: runs must only read //lint:sharedptr state",
						field, callee.Name())
				}
			}
		}
		return true
	})
}

// flagStore reports a store whose target chain passes through a shared
// field or a local alias of one. A define of a fresh variable is not a
// store into shared memory (it is how aliases arise; collectAliases
// handles those).
func (s *sharedmutState) flagStore(lhs ast.Expr, tok token.Token, aliasField func(ast.Expr) (string, bool)) {
	if tok == token.DEFINE {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if s.pass.TypesInfo.Defs[id] != nil {
				return
			}
		}
	}
	if field := s.sharedFieldIn(lhs, true); field != "" {
		s.pass.Reportf(lhs.Pos(),
			"write through shared pointer field %s: //lint:sharedptr state is shared across Runner workers and must only be read at run time",
			field)
		return
	}
	obj, shared := storeRoot(s.pass.TypesInfo, lhs)
	if !shared {
		return // rebinding the local itself, not writing the pointee
	}
	if field, ok := aliasField(unparen(lhs)); ok && obj != nil {
		s.pass.Reportf(lhs.Pos(),
			"write through %s, an alias of shared pointer field %s: //lint:sharedptr state must only be read at run time",
			obj.Name(), field)
	}
}

// collectAliases finds local variables whose every assignment is rooted
// at a shared pointer field (m := cfg.Mix). A variable that is ever
// assigned anything else is ambiguous and dropped — flow-insensitive
// analysis cannot order the assignments, so it accepts the false
// negative rather than flag the common fresh-value-fallback pattern.
func (s *sharedmutState) collectAliases(body *ast.BlockStmt) map[types.Object]string {
	aliases := make(map[types.Object]string)
	ambiguous := make(map[types.Object]bool)
	record := func(lhs, rhs ast.Expr) {
		id, ok := unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := s.pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = s.pass.TypesInfo.Uses[id]
		}
		if _, ok := obj.(*types.Var); !ok {
			return
		}
		if field := s.sharedFieldIn(unparen(rhs), false); field != "" {
			if _, dup := aliases[obj]; !dup {
				aliases[obj] = field
			}
		} else {
			ambiguous[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) && (n.Tok == token.DEFINE || n.Tok == token.ASSIGN) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	for obj := range ambiguous {
		delete(aliases, obj)
	}
	return aliases
}

// checkCaptures flags writes to captured variables inside a closure
// destined for a //lint:nocapturewrite field. The closure's own
// parameters and locals (anything declared inside the literal) are fair
// game; everything declared outside — enclosing locals and package-level
// variables alike — is shared with other runs or the submitting
// goroutine.
func (s *sharedmutState) checkCaptures(lit *ast.FuncLit) {
	declaredOutside := func(e ast.Expr) (types.Object, bool) {
		obj, _ := storeRoot(s.pass.TypesInfo, e)
		v, ok := obj.(*types.Var)
		if !ok {
			return nil, false
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return nil, false
		}
		return v, true
	}
	flag := func(pos token.Pos, obj types.Object) {
		s.pass.Reportf(pos,
			"//lint:nocapturewrite closure writes captured variable %s: worker-run closures must only mutate their own parameters",
			obj.Name())
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					if id, ok := unparen(lhs).(*ast.Ident); ok && s.pass.TypesInfo.Defs[id] != nil {
						continue
					}
				}
				if obj, ok := declaredOutside(lhs); ok {
					flag(lhs.Pos(), obj)
				}
			}
		case *ast.IncDecStmt:
			if obj, ok := declaredOutside(n.X); ok {
				flag(n.X.Pos(), obj)
			}
		case *ast.CallExpr:
			callee, recv := calleeFunc(s.pass.TypesInfo, n)
			if callee == nil {
				return true
			}
			for _, pos := range s.mutatedPositions(callee) {
				e := callArgAt(callee, recv, n, pos)
				if e == nil {
					continue
				}
				arg := unparen(e)
				if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
					arg = unparen(u.X)
				}
				if obj, ok := declaredOutside(arg); ok {
					s.pass.Reportf(e.Pos(),
						"//lint:nocapturewrite closure passes captured variable %s to %s, which may write through it",
						obj.Name(), callee.Name())
				}
			}
		}
		return true
	})
}
