package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// DeterTaint is the whole-program replacement for the old static
// restricted-package list: instead of trusting that a hand-maintained set
// of packages stays clean, it proves by call-graph reachability that no
// registered experiment driver — every Run function in the experiments
// registry — nor core.MeasureSuite nor the suite-spec loader
// workload.ParseSpec can reach a nondeterminism source:
//
//   - time.Now / time.Since (wall clock),
//   - anything in math/rand or math/rand/v2 (ambient random stream),
//   - os.Getenv / os.LookupEnv / os.Environ (ambient environment).
//
// internal/obs is a traversal barrier: it owns the injectable Clock and is
// policed separately by the wallclock analyzer, so calls into it are not
// expanded. Each finding reports the full discovery chain from a root, so
// an indirect cross-package taint is diagnosable from the message alone.
// Packages containing any reachable function additionally may not import
// math/rand at all.
var DeterTaint = &Analyzer{
	Name:      "detertaint",
	Doc:       "prove by call-graph reachability that no driver Run or spec-loading path reaches time.Now, math/rand or os.Getenv",
	RunModule: runDeterTaint,
}

// detertaintRandPkgs are the ambient-randomness packages whose reachable
// use (call or import) is forbidden.
var detertaintRandPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// detertaintSource classifies a callee node as a nondeterminism source,
// returning a display name and remediation hint.
func detertaintSource(n *Node) (display, hint string, ok bool) {
	switch {
	case n.PkgPath == "time" && (n.Name == "Now" || n.Name == "Since"):
		return "time." + n.Name, "route timing through obs.Clock or thread a timestamp in from the caller", true
	case detertaintRandPkgs[n.PkgPath]:
		return n.PkgPath + "." + n.Name, "use repro/internal/rng (seeded, deterministic) instead", true
	case n.PkgPath == "os" && (n.Name == "Getenv" || n.Name == "LookupEnv" || n.Name == "Environ"):
		return "os." + n.Name, "thread configuration through explicit parameters", true
	}
	return "", "", false
}

// pathEndsWith reports whether the unit path (with any ".test" suffix
// trimmed) is pkg or ends with "/"+pkg.
func pathEndsWith(path, pkg string) bool {
	path = strings.TrimSuffix(path, ".test")
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// obsBarrier matches the observability subtree, the one blessed wall-clock
// owner (see wallclock.go).
func obsBarrier(n *Node) bool {
	for _, p := range wallclockExemptPrefixes {
		if n.PkgPath == p || strings.HasPrefix(n.PkgPath, p+"/") {
			return true
		}
	}
	return false
}

func runDeterTaint(pass *ModulePass) {
	g := BuildCallGraph(pass.Fset, pass.Units)
	roots := detertaintRoots(pass, g)
	if len(roots) == 0 {
		return // no registry in scope (single-package or fixture run)
	}
	reach := g.Reach(roots, obsBarrier)

	reachablePkgs := map[string]bool{}
	type hit struct {
		pos     token.Pos
		display string
		hint    string
		chain   string
	}
	seen := map[string]bool{}
	var hits []hit
	for _, id := range reach.Order {
		n := g.Node(id)
		if !n.HasBody || obsBarrier(n) {
			continue
		}
		reachablePkgs[n.PkgPath] = true
		for _, e := range n.Edges {
			display, hint, ok := detertaintSource(e.Callee)
			if !ok {
				continue
			}
			key := display + "@" + pass.Fset.Position(e.Pos).String()
			if seen[key] {
				continue
			}
			seen[key] = true
			chain := append(reach.Chain(id), display)
			hits = append(hits, hit{pos: e.Pos, display: display, hint: hint, chain: strings.Join(trimChain(chain), " → ")})
		}
	}
	for _, h := range hits {
		pass.Reportf(h.pos, "%s is reachable from a deterministic root (%s); %s", h.display, h.chain, h.hint)
	}

	// Packages proven on a driver path may not even import math/rand: an
	// import with no reachable call today is one refactor from a silent
	// taint tomorrow.
	for _, u := range pass.Units {
		if strings.HasSuffix(u.Path, ".test") {
			continue
		}
		for _, f := range u.Files {
			if isTestFile(pass.Fset, f) {
				continue
			}
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if detertaintRandPkgs[path] && reachablePkgs[u.Path] {
					pass.Reportf(imp.Pos(), "import of %s in a package on a deterministic root's call path: use repro/internal/rng (seeded, deterministic) instead", path)
				}
			}
		}
	}
}

// trimChain shortens node IDs for display by dropping the module prefix.
func trimChain(chain []string) []string {
	out := make([]string, len(chain))
	for i, s := range chain {
		out[i] = strings.ReplaceAll(s, "repro/", "")
	}
	return out
}

// detertaintRoots finds the deterministic roots in the loaded units:
// every function registered as a Driver's Run in the experiments
// registry's package-level `drivers` literal (unwrapping the wrap(...)
// adapter), plus MeasureSuite in the core package, plus ParseSpec in
// the workload package — the suite-spec loader promises that everything
// a spec generates is a pure function of the spec bytes, so its call
// tree must be as clean as a driver's. Matching is structural — any
// loaded package whose path ends in /experiments, /core or /workload
// participates — so fixtures can stand up a miniature registry.
func detertaintRoots(pass *ModulePass, g *CallGraph) []string {
	var roots []string
	add := func(fn *types.Func) {
		if fn != nil {
			roots = append(roots, funcID(fn))
		}
	}
	for _, u := range pass.Units {
		if strings.HasSuffix(u.Path, ".test") || u.Info == nil {
			continue
		}
		for _, f := range u.Files {
			if isTestFile(pass.Fset, f) {
				continue
			}
			if pathEndsWith(u.Path, "experiments") {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok || gd.Tok != token.VAR {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok || len(vs.Names) != 1 || vs.Names[0].Name != "drivers" || len(vs.Values) != 1 {
							continue
						}
						for _, fn := range registryRunFuncs(u.Info, vs.Values[0]) {
							add(fn)
						}
					}
				}
			}
			if pathEndsWith(u.Path, "core") {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "MeasureSuite" {
						fn, _ := u.Info.Defs[fd.Name].(*types.Func)
						add(fn)
					}
				}
			}
			if pathEndsWith(u.Path, "workload") {
				for _, decl := range f.Decls {
					if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "ParseSpec" {
						fn, _ := u.Info.Defs[fd.Name].(*types.Func)
						add(fn)
					}
				}
			}
		}
	}
	sort.Strings(roots)
	return roots
}

// registryRunFuncs extracts the functions assigned to Run fields in the
// registry composite literal, looking through a single-argument adapter
// call like wrap(TableIII).
func registryRunFuncs(info *types.Info, lit ast.Expr) []*types.Func {
	cl, ok := lit.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var out []*types.Func
	for _, el := range cl.Elts {
		entry, ok := el.(*ast.CompositeLit)
		if !ok {
			if un, ok2 := el.(*ast.UnaryExpr); ok2 {
				entry, ok = un.X.(*ast.CompositeLit)
			}
			if !ok {
				continue
			}
		}
		for _, kv := range entry.Elts {
			pair, ok := kv.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			key, ok := pair.Key.(*ast.Ident)
			if !ok || key.Name != "Run" {
				continue
			}
			expr := pair.Value
			if call, ok := expr.(*ast.CallExpr); ok && len(call.Args) == 1 {
				expr = call.Args[0]
			}
			if fn := calleeFunc(info, unparenUninstantiate(expr)); fn != nil {
				out = append(out, fn)
			}
		}
	}
	return out
}
