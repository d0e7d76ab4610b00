// Package analysis is a small stdlib-only static-analysis framework that
// machine-enforces the repository's determinism and correctness invariants.
//
// The reproduction's value rests on byte-identical output: the pipeline
// (Table I metrics -> PCA -> clustering -> subsets -> validation) must emit
// the same tables and figures on every run. Go makes it easy to break that
// silently — map iteration order, time.Now, math/rand — so the invariants
// are encoded as analyzers rather than left as tribal knowledge:
//
//   - detertaint: a whole-program reachability proof that no registered
//     driver's Run path (nor core.MeasureSuite) can reach a
//     nondeterminism source — time.Now/Since, math/rand, os.Getenv —
//     built on the cross-package call graph in callgraph.go
//   - ctxflow: context discipline — context.Context is the first
//     parameter, never a struct field, and Background/TODO stay in cmd/
//   - gojoin: every go statement in internal/ has a visible join or
//     cancellation path in its enclosing function
//   - maporder: no map iteration that feeds output or accumulates
//     order-sensitive state without sorting
//   - floateq: no exact ==/!= between floats outside tests (exact
//     zero guards are the one blessed idiom)
//   - zerorng: no composite-literal construction of rng.Rand, whose zero
//     value is documented as unusable
//   - errdiscard: no silently discarded error returns outside tests
//   - wallclock: no time.Now/time.Since outside internal/obs (the
//     observability layer owns the injectable Clock); test files exempt
//   - printbound: no fmt.Print*/os.Stdout/os.Stderr inside
//     internal/experiments; drivers return typed artifacts and the CLI
//     owns output routing; test files exempt
//
// Findings can be suppressed with a justified comment on the offending
// line or the line above:
//
//	//charnet:ignore <analyzer> <reason>
//
// A directive with an unknown analyzer name or a missing reason does not
// suppress anything and is itself reported, so suppressions stay honest.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer checks one invariant over a type-checked package, a whole
// module, or both. Exactly one of Run and RunModule is usually set.
type Analyzer struct {
	// Name is the identifier used in findings and suppression comments.
	Name string
	// Doc is a one-line description of the invariant enforced.
	Doc string
	// Run inspects one package unit and reports findings via pass.Reportf.
	Run func(*Pass)
	// RunModule inspects every loaded unit at once — the hook for
	// whole-program analyses like the detertaint call-graph walk. It runs
	// after all per-unit passes, on a single goroutine.
	RunModule func(*ModulePass)
}

// All returns the full analyzer suite in deterministic order.
func All() []*Analyzer {
	return []*Analyzer{
		DeterTaint,
		CtxFlow,
		GoJoin,
		MapOrder,
		FloatEq,
		ZeroRNG,
		ErrDiscard,
		WallClock,
		PrintBound,
	}
}

// ByName resolves an analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// A Finding is one reported violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// A Pass carries one type-checked compilation unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the import path of the unit (external test units carry a
	// ".test" suffix). Pseudo-paths derived from testdata/src/ layouts are
	// used by fixtures.
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether the file is a _test.go file.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go")
}

// A ModulePass carries every loaded unit through one whole-program
// analyzer. Units appear in target order (external test units included,
// carrying their ".test" path suffix); module analyzers are expected to
// skip test units and test files themselves.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// isTestFile reports whether f was parsed from a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// TypeOf returns the static type of e, or nil when type information is
// unavailable (for example when an import could not be resolved).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// pkgPathOf resolves x to the import path of the package it names, if x is
// an identifier bound to an import (possibly aliased).
func (p *Pass) pkgPathOf(x ast.Expr) (string, bool) {
	id, ok := x.(*ast.Ident)
	if !ok || p.Info == nil {
		return "", false
	}
	if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path(), true
	}
	return "", false
}

// pkgCall reports whether call invokes pkgPath.name for one of names.
func (p *Pass) pkgCall(call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	path, ok := p.pkgPathOf(sel.X)
	if !ok || path != pkgPath {
		return "", false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}

// rootIdent returns the leftmost identifier of an lvalue-ish expression:
// x, x.f, x[i], *x all root at x.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return v
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// objectOf returns the object an identifier refers to, whether it is a use
// or a definition site.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if obj := p.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Info.Defs[id]
}
