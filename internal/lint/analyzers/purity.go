package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"ctqosim/internal/lint/analysis"
)

// pureDirective marks a function as a purity root: "//lint:pure [reason]"
// on a function's doc comment demands that the function — and everything
// reachable from it through the static call graph — writes no shared
// state, performs no I/O, and touches no nondeterministic source. The
// scenario generator (scenario.Generate) and assertion evaluator
// (scenario.Evaluate) carry it; //lint:nocapturewrite closures (Tweak)
// are implicit roots.
const pureDirective = "//lint:pure"

// maxEffects bounds a function's exported effect summary, mirroring
// maxAllocSites: callers only need to know the function is impure and
// where that starts.
const maxEffects = 4

// Effect is one direct impurity of a function: a shared-state write, an
// I/O call, or a read of a nondeterministic source.
type Effect struct {
	// What names the impurity ("writes package variable seen", "I/O call
	// os.File.Write", "wall-clock call time.Now", ...).
	What string
	// File (base name) and Line locate it.
	File string
	Line int
}

// EffectsFact is the direct-effect summary of one function: the shared
// writes, I/O and nondeterminism it performs in its own body (function
// literals included — creating the closure may lead to the effect).
// Transitive impurity is deliberately NOT folded into the fact: the
// purity analyzer walks the CalleesFact graph instead, so a finding can
// render the precise call chain from the root to the effect.
type EffectsFact struct {
	// Effects lists the earliest direct effects (capped at maxEffects),
	// sorted by position.
	Effects []Effect
}

// AFact implements analysis.Fact.
func (*EffectsFact) AFact() {}

// String renders the summary for fixture fact expectations.
func (f *EffectsFact) String() string {
	whats := make([]string, len(f.Effects))
	for i, e := range f.Effects {
		whats[i] = e.What
	}
	return "effects(" + strings.Join(whats, "; ") + ")"
}

// Purity enforces //lint:pure roots and //lint:nocapturewrite closures
// over the interprocedural call graph: every function reachable from a
// root must be free of shared-state writes, I/O and nondeterministic
// reads. Direct effects are flagged at their own position; transitive
// ones at the offending call, with the full chain down to the effect
// rendered like the hotpath analyzer's ("Tweak -> logStats ->
// os.Stdout.Write, 3 calls deep") and carried into -json output.
//
// Writes through the root's own parameters are legal — a Tweak closure
// exists to mutate the per-run SystemSpec handed to it; sharedmut owns
// the captured-state and shared-pointer halves of that contract.
var Purity = &analysis.Analyzer{
	Name: "purity",
	Doc: "require //lint:pure functions and //lint:nocapturewrite closures " +
		"to reach no shared-state write, I/O or nondeterministic source " +
		"through the static call graph, reporting the call chain to each " +
		"effect",
	Requires: []*analysis.Analyzer{analysis.Callgraph, Sharedmut},
	FactTypes: []analysis.Fact{
		new(EffectsFact), new(analysis.CalleesFact), new(NoCaptureWriteFact),
	},
	Run: runPurity,
}

// ioPackages are stdlib packages whose functions and methods count as
// I/O (or process-state mutation) wherever they are called from.
var ioPackages = map[string]bool{
	"os":       true,
	"os/exec":  true,
	"net":      true,
	"net/http": true,
	"log":      true,
	"syscall":  true,
}

// fmtPrinting are the fmt functions that write to process stdout.
// Fprint* variants are flagged by their os.Stdout/os.Stderr argument
// instead (writing into a caller-supplied bytes.Buffer is pure).
var fmtPrinting = map[string]bool{"Print": true, "Printf": true, "Println": true}

// randExempt are the math/rand constructors that wrap an explicit seeded
// source — the determinism contract's approved pattern. Everything else
// at package level draws from the shared global source.
var randExempt = map[string]bool{"New": true, "NewSource": true}

func runPurity(pass *analysis.Pass) (any, error) {
	if pass.Pkg == nil {
		return nil, nil
	}
	s := &purityState{pass: pass, allowed: allowedLinesFor(pass, "purity")}
	s.exportEffects()
	s.checkRoots()
	return nil, nil
}

type purityState struct {
	pass *analysis.Pass
	// allowed holds the package's "//lint:allow purity" lines: effects on
	// (or right below) them are stripped at fact-construction time, so the
	// suppression also covers every root that reaches the site.
	allowed map[string]map[int]token.Pos
	// graph and effectsByID are built lazily, only in packages that
	// declare purity roots.
	graph       *analysis.Graph
	effectsByID map[analysis.FuncID]*EffectsFact
}

// exportEffects computes and exports the direct-effect summary of every
// function declared in the package.
func (s *purityState) exportEffects() {
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
			effects := s.directEffects(fd.Body)
			if len(effects) == 0 {
				continue
			}
			s.pass.ExportObjectFact(fn, &EffectsFact{Effects: effects})
		}
	}
}

// rawEffect is an in-progress Effect with its source position.
type rawEffect struct {
	pos  token.Pos
	what string
}

// directEffects renders a body's raw effects for export, capped at
// maxEffects.
func (s *purityState) directEffects(body ast.Node) []Effect {
	raw := s.scanEffects(body)
	if len(raw) > maxEffects {
		raw = raw[:maxEffects]
	}
	out := make([]Effect, len(raw))
	for i, r := range raw {
		p := s.pass.Fset.Position(r.pos)
		out[i] = Effect{What: r.what, File: filepath.Base(p.Filename), Line: p.Line}
	}
	return out
}

// scanEffects scans one body (function literals included) for direct
// impurities, sorted by position.
func (s *purityState) scanEffects(body ast.Node) []rawEffect {
	info := s.pass.TypesInfo
	var raw []rawEffect
	seen := make(map[token.Pos]bool)
	add := func(pos token.Pos, what string) {
		if seen[pos] || consumeAllow(s.pass, s.allowed, pos, "purity") {
			return
		}
		seen[pos] = true
		raw = append(raw, rawEffect{pos: pos, what: what})
	}
	flagWrite := func(lhs ast.Expr) {
		obj, _ := storeRoot(info, lhs)
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return
		}
		if v.Parent() == v.Pkg().Scope() {
			add(lhs.Pos(), "writes package variable "+v.Name())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if n.Tok == token.DEFINE {
					if id, ok := unparen(lhs).(*ast.Ident); ok && info.Defs[id] != nil {
						continue
					}
				}
				flagWrite(lhs)
			}
		case *ast.IncDecStmt:
			flagWrite(n.X)
		case *ast.SendStmt:
			add(n.Arrow, "channel send")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.OpPos, "channel receive")
			}
		case *ast.GoStmt:
			add(n.Go, "spawns goroutine")
		case *ast.CallExpr:
			if what, ok := s.callEffect(n); ok {
				add(n.Pos(), what)
			}
		}
		return true
	})
	sort.Slice(raw, func(i, j int) bool { return raw[i].pos < raw[j].pos })
	return raw
}

// callEffect classifies one call as a direct impurity: stdlib I/O,
// wall-clock reads, or global/cryptographic randomness.
func (s *purityState) callEffect(call *ast.CallExpr) (string, bool) {
	info := s.pass.TypesInfo
	callee := analysis.StaticCallee(info, call)
	if callee == nil || callee.Pkg() == nil {
		return "", false
	}
	pkg := callee.Pkg().Path()
	sig, _ := callee.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case ioPackages[pkg]:
		return "I/O call " + qualFuncName(callee), true
	case pkg == "fmt" && !isMethod:
		if fmtPrinting[callee.Name()] {
			return "I/O call " + qualFuncName(callee), true
		}
		if strings.HasPrefix(callee.Name(), "Fprint") && len(call.Args) > 0 {
			if obj, _ := storeRoot(info, unparen(call.Args[0])); obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Pkg().Path() == "os" &&
					(v.Name() == "Stdout" || v.Name() == "Stderr") {
					return "I/O call " + qualFuncName(callee) + " to os." + v.Name(), true
				}
			}
		}
	case pkg == "time" && !isMethod && wallclockFuncs[callee.Name()]:
		return "wall-clock call time." + callee.Name(), true
	case (pkg == "math/rand" || pkg == "math/rand/v2") && !isMethod && !randExempt[callee.Name()]:
		return "global rand call rand." + callee.Name(), true
	case pkg == "crypto/rand":
		return "nondeterministic call " + qualFuncName(callee), true
	}
	return "", false
}

// ensureGraph builds the reachability view from the run-wide fact store:
// the call graph plus the FuncID-indexed effect table.
func (s *purityState) ensureGraph() {
	if s.graph != nil {
		return
	}
	s.graph = analysis.BuildGraph(s.pass.Facts)
	s.effectsByID = make(map[analysis.FuncID]*EffectsFact)
	if s.pass.Facts == nil {
		return
	}
	for _, e := range s.pass.Facts.Entries() {
		fact, ok := e.Fact.(*EffectsFact)
		if !ok {
			continue
		}
		if fn, ok := e.Obj.(*types.Func); ok {
			s.effectsByID[analysis.IDOf(fn)] = fact
		}
	}
}

// checkRoots finds the package's purity roots — //lint:pure declarations
// and function literals assigned to //lint:nocapturewrite fields — and
// verifies each against the call graph.
func (s *purityState) checkRoots() {
	for _, f := range s.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !hasPureDirective(fd.Doc) {
				continue
			}
			if fd.Body == nil {
				s.pass.Reportf(fd.Name.Pos(),
					"//lint:pure on %s, which has no body: the contract needs a call graph to check", fd.Name.Name)
				continue
			}
			s.checkRoot("//lint:pure function "+fd.Name.Name, fd.Body)
		}
		// Closures assigned to //lint:nocapturewrite fields are implicit
		// roots (the Tweak contract).
		noCaptureClosures(s.pass, f, func(field *ast.Ident, lit *ast.FuncLit) {
			s.checkRoot(field.Name+" closure (//lint:nocapturewrite)", lit.Body)
		})
	}
}

// hasPureDirective scans a doc comment for the pure directive.
func hasPureDirective(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == pureDirective || strings.HasPrefix(c.Text, pureDirective+" ") ||
			strings.HasPrefix(c.Text, pureDirective+"\t") {
			return true
		}
	}
	return false
}

// checkRoot verifies one root body: direct effects are reported at their
// own position; impure callees at the offending call site, with the
// chain from the root down to the nearest effect.
func (s *purityState) checkRoot(label string, body ast.Node) {
	// Direct effects (the body's own writes/IO/nondeterminism).
	for _, e := range s.scanEffects(body) {
		s.pass.Reportf(e.pos, "%s must stay pure: %s", label, e.what)
	}
	// Transitive effects through static callees.
	s.ensureGraph()
	info := s.pass.TypesInfo
	reported := make(map[analysis.FuncID]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.StaticCallee(info, call)
		if callee == nil {
			return true
		}
		id := analysis.IDOf(callee)
		if reported[id] {
			return true
		}
		path, found := s.graph.Find(id, maxChainDepth-1, func(n analysis.FuncID) bool {
			_, impure := s.effectsByID[n]
			return impure
		})
		if !found {
			return true
		}
		reported[id] = true
		s.reportChain(label, call, id, path)
		return true
	})
}

// reportChain renders one transitive impurity: the call into firstID
// eventually reaches an effect, path being the edges beyond firstID.
func (s *purityState) reportChain(label string, call *ast.CallExpr, firstID analysis.FuncID, path []analysis.CallEdge) {
	// The node sequence is firstID, path[0].Callee, ..., and the effect
	// lives in the last node.
	last := firstID
	nodes := []analysis.FuncID{firstID}
	for _, e := range path {
		nodes = append(nodes, e.Callee)
		last = e.Callee
	}
	eff := s.effectsByID[last].Effects[0]
	depth := len(nodes)

	callPos := s.pass.Fset.Position(call.Pos())
	chain := []string{renderSite(label, "calls "+firstID.Short(), filepath.Base(callPos.Filename), callPos.Line)}
	for i, e := range path {
		chain = append(chain, renderSite(nodes[i].Short(), "calls "+e.Callee.Short(), e.File, e.Line))
	}
	chain = append(chain, renderSite(last.Short(), eff.What, eff.File, eff.Line))
	if len(chain) > maxChainDepth {
		chain = chain[:maxChainDepth]
	}
	s.pass.Report(analysis.Diagnostic{
		Pos: call.Pos(),
		Message: fmt.Sprintf("%s reaches impure %s: %s (%s:%d, %d call%s deep)",
			label, last.Short(), eff.What, eff.File, eff.Line, depth, plural(depth)),
		Chain: chain,
	})
}

// plural returns "s" for n != 1.
func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}
