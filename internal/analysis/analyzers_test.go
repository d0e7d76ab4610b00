package analysis

import (
	"path/filepath"
	"testing"
)

// TestDeterTaintFixture: an indirect, cross-package time.Now (and
// math/rand) call two hops below a registered driver is caught with its
// full call chain, while the clean driver's path stays silent; the core
// MeasureSuite and workload ParseSpec roots are policed the same way.
// The fixture targets are listed dependency-first so the pseudo packages
// can import each other.
func TestDeterTaintFixture(t *testing.T) {
	checkGolden(t, "detertaint", runFixtureMulti(t, []string{
		"repro/dtfix/clock",
		"repro/dtfix/measure",
		"repro/dtfix/core",
		"repro/dtfix/experiments",
		"repro/dtfix/workload",
	}, DeterTaint))
}

// TestDeterTaintNoRoots: a lone package with wall-clock reads but no
// registry in scope yields no detertaint findings — reachability needs a
// root to start from.
func TestDeterTaintNoRoots(t *testing.T) {
	if got := runFixture(t, "repro/dtfix/clock", DeterTaint); len(got) != 0 {
		t.Fatalf("unexpected findings without roots: %v", got)
	}
}

// TestDeterTaintRealModule: the acceptance invariant — every registered
// driver's Run path in the live module is provably free of
// nondeterminism sources.
func TestDeterTaintRealModule(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	moduleDir, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(moduleDir)
	r.Analyzers = []*Analyzer{DeterTaint}
	targets, patterns, err := ModuleTargets(moduleDir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	r.Prewarm(patterns...)
	findings, err := r.Run(targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("driver Run paths are not clean: %v", findings)
	}
}

func TestCtxFlowFixture(t *testing.T) {
	checkGolden(t, "ctxflow", runFixture(t, "repro/internal/serve/ctxflowfix", CtxFlow))
}

// TestCtxFlowCmdExempt: cmd/ is where processes start; minting a root
// context there is the blessed idiom.
func TestCtxFlowCmdExempt(t *testing.T) {
	if got := runFixture(t, "repro/cmd/ctxok", CtxFlow); len(got) != 0 {
		t.Fatalf("unexpected findings under cmd/: %v", got)
	}
}

func TestGoJoinFixture(t *testing.T) {
	checkGolden(t, "gojoin", runFixture(t, "repro/internal/serve/gojoinfix", GoJoin))
}

// TestGoJoinOutsideInternal: the rule is scoped to the internal/ tree.
func TestGoJoinScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/core":      true,
		"repro/internal/core.test": true,
		"repro/cmd/charnet":        false,
		"internal/x":               true,
		"repro/examples/scaling":   false,
	} {
		if got := gojoinApplies(path); got != want {
			t.Errorf("gojoinApplies(%q) = %v, want %v", path, got, want)
		}
	}
}

func TestMapOrderFixture(t *testing.T) {
	checkGolden(t, "maporder", runFixture(t, "repro/internal/report/maporderfix", MapOrder))
}

func TestFloatEqFixture(t *testing.T) {
	checkGolden(t, "floateq", runFixture(t, "repro/internal/stats/floateqfix", FloatEq))
}

func TestZeroRNGFixture(t *testing.T) {
	checkGolden(t, "zerorng", runFixture(t, "repro/internal/sim/zerorngfix", ZeroRNG))
}

// TestZeroRNGSelfExempt: package rng itself constructs the value it seeds.
func TestZeroRNGSelfExempt(t *testing.T) {
	r := NewRunner("../..")
	r.Analyzers = []*Analyzer{ZeroRNG}
	findings, err := r.Run([]Target{{Dir: "../rng", Path: "repro/internal/rng"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("zerorng must not fire inside package rng: %v", findings)
	}
}

func TestWallClockFixture(t *testing.T) {
	checkGolden(t, "wallclock", runFixture(t, "repro/internal/report/wallclockfix", WallClock))
}

// TestWallClockObsExempt: the obs subtree implements the Clock abstraction
// and is the one place allowed to read the wall clock.
func TestWallClockObsExempt(t *testing.T) {
	if got := runFixture(t, "repro/internal/obs/clockok", WallClock); len(got) != 0 {
		t.Fatalf("unexpected findings inside the obs subtree: %v", got)
	}
}

// TestWallClockSelfExempt: the real internal/obs package reads time.Now by
// design.
func TestWallClockSelfExempt(t *testing.T) {
	r := NewRunner("../..")
	r.Analyzers = []*Analyzer{WallClock}
	findings, err := r.Run([]Target{{Dir: "../obs", Path: "repro/internal/obs"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("wallclock must not fire inside package obs: %v", findings)
	}
}

func TestPrintBoundFixture(t *testing.T) {
	checkGolden(t, "printbound", runFixture(t, "repro/internal/experiments/printboundfix", PrintBound))
}

// TestPrintBoundUnrestricted: printing outside internal/experiments is
// not the analyzer's business (cmd/charnet owns the output stream).
func TestPrintBoundUnrestricted(t *testing.T) {
	if got := runFixture(t, "repro/internal/report/wallclockfix", PrintBound); len(got) != 0 {
		t.Fatalf("unexpected findings outside internal/experiments: %v", got)
	}
}

// TestPrintBoundExperiments: the real experiments package must be clean —
// this is the refactor's invariant, enforced against the live code.
func TestPrintBoundExperiments(t *testing.T) {
	r := NewRunner("../..")
	r.Analyzers = []*Analyzer{PrintBound}
	findings, err := r.Run([]Target{{Dir: "../experiments", Path: "repro/internal/experiments"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 0 {
		t.Fatalf("printbound fired inside the live experiments package: %v", findings)
	}
}

func TestErrDiscardFixture(t *testing.T) {
	checkGolden(t, "errdiscard", runFixture(t, "repro/internal/report/errdiscardfix", ErrDiscard))
}

// TestSuppressFixture runs the full suite so malformed directives are
// reported alongside the surviving floateq findings.
func TestSuppressFixture(t *testing.T) {
	checkGolden(t, "suppress", runFixture(t, "repro/internal/stats/suppressfix"))
}

func TestByName(t *testing.T) {
	if ByName("maporder") != MapOrder {
		t.Fatal("ByName(maporder)")
	}
	if ByName("nosuch") != nil {
		t.Fatal("ByName(nosuch) should be nil")
	}
}
