// Package workload defines the synthetic workload model and the three
// benchmark-suite catalogs of the paper: the .NET microbenchmark suite
// (44 categories, 2906 workloads), the ASP.NET suite (53 workloads) and
// SPEC CPU17.
//
// Substitution note (DESIGN.md §2): the real suites are C#/C++ programs
// run on hardware; here each workload is a Profile — a parameterized
// behavioral description (instruction mix, code footprint, data locality,
// allocation rate, kernel share, ...) that the sim package executes
// against the simulated microarchitecture. Per-suite and per-category
// parameters are calibrated so the *joint distribution* of the resulting
// 24-metric vectors reproduces the paper's aggregate findings; individual
// workloads inside a category are seeded perturbations of the category
// archetype, mirroring how e.g. the 305 System.Runtime workloads are
// variations on one behavioral theme.
package workload

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Suite identifies a benchmark suite by its display name. It is an open
// string type rather than a closed enum: the paper's three suites are the
// constants below, and suite specs (see Spec) introduce new values without
// touching any switch. The value feeds Seed, so a suite's name is part of
// its workloads' deterministic identity and must never change once
// measurements of it exist.
type Suite string

// The paper's three suites, named as the paper names them.
const (
	DotNet    Suite = ".NET"
	AspNet    Suite = "ASP.NET"
	SpecCPU17 Suite = "SPEC CPU17"
)

// String returns the suite's name as used in the paper.
func (s Suite) String() string { return string(s) }

// Profile is the complete behavioral description of one workload.
type Profile struct {
	Name        string
	Suite       Suite
	Category    string // .NET category; empty for ASP.NET and SPEC
	Description string // one-line description (Table IV style)

	// Instruction mix, as fractions of all instructions (0..1).
	// BranchFrac+LoadFrac+StoreFrac <= 1; the rest is plain ALU work.
	BranchFrac float64
	LoadFrac   float64
	StoreFrac  float64
	// KernelFrac is the fraction of instructions executed in kernel mode
	// (networking stack, syscalls) — the Fig 3 metric.
	KernelFrac float64

	// Code-side behavior.
	CodeFootprintBytes   int     // hot machine-code bytes (JITed for managed)
	MethodCount          int     // methods over which the footprint spreads
	MethodZipf           float64 // method-popularity skew: high = few hot methods
	CallEveryInstr       int     // avg instructions between method switches
	BranchPredictability float64 // prob. a branch follows its bias (0.5..1)
	TakenFrac            float64 // fraction of branches taken
	MicrocodeFrac        float64 // microcoded instruction share (MS switches)
	DivFrac              float64 // divide-unit instruction share

	// Data-side behavior.
	WorkingSetBytes int64   // steady-state live data
	DataZipf        float64 // Zipf exponent of region popularity (locality)
	SequentialFrac  float64 // prefetch-friendly sequential access share
	LocalFrac       float64 // stack/temporal-reuse accesses that stay L1-hot
	ILP             float64 // intrinsic instruction-level parallelism (0..1)

	// Managed-runtime behavior. Managed=false means native (SPEC).
	Managed         bool
	AllocBytesPerKI float64 // heap bytes allocated per kilo-instruction
	ExceptionPKI    float64 // exceptions per kilo-instruction
	ContentionPKI   float64 // monitor contention events per kilo-instruction

	// Parallelism: the core count the workload naturally runs at
	// (ASP.NET services span many cores; microbenchmarks are single-core).
	DefaultCores int

	// Weight is the nominal execution-time weight used by the SPECspeed-
	// style composite score (longer benchmarks influence suite scores via
	// per-benchmark ratios; the geomean makes this weight-free, but the
	// instruction volume matters for simulation sizing).
	InstructionScale float64
}

// The most code a profile may describe. clr.NewJIT sizes its method
// table from MethodCount, so these bound what one workload can make the
// simulator allocate; perturb clamps generated profiles to them.
const (
	MaxMethodCount        = 65536
	MaxCodeFootprintBytes = 64 << 20
)

// Validate reports structurally impossible profiles. Every error names
// the offending field; NaN and infinities fail every float field.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: unnamed profile")
	}
	// Each check is written to fail for NaN; with a finite bound it also
	// fails for an infinity.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	switch {
	case !(p.BranchFrac >= 0 && p.BranchFrac <= 1):
		return p.fieldErr("BranchFrac", p.BranchFrac, "[0,1]")
	case !(p.LoadFrac >= 0 && p.LoadFrac <= 1):
		return p.fieldErr("LoadFrac", p.LoadFrac, "[0,1]")
	case !(p.StoreFrac >= 0 && p.StoreFrac <= 1):
		return p.fieldErr("StoreFrac", p.StoreFrac, "[0,1]")
	case !(p.KernelFrac >= 0 && p.KernelFrac <= 1):
		return p.fieldErr("KernelFrac", p.KernelFrac, "[0,1]")
	case !(p.MethodZipf >= 0 && p.MethodZipf <= 2):
		return p.fieldErr("MethodZipf", p.MethodZipf, "[0,2]")
	case !(p.BranchPredictability >= 0.5 && p.BranchPredictability <= 1):
		return p.fieldErr("BranchPredictability", p.BranchPredictability, "[0.5,1]")
	case !(p.TakenFrac >= 0 && p.TakenFrac <= 1):
		return p.fieldErr("TakenFrac", p.TakenFrac, "[0,1]")
	case !(p.MicrocodeFrac >= 0 && p.MicrocodeFrac <= 1):
		return p.fieldErr("MicrocodeFrac", p.MicrocodeFrac, "[0,1]")
	case !(p.DivFrac >= 0 && p.DivFrac <= 1):
		return p.fieldErr("DivFrac", p.DivFrac, "[0,1]")
	case !(p.DataZipf >= 0 && finite(p.DataZipf)):
		return p.fieldErr("DataZipf", p.DataZipf, "[0,+Inf)")
	case !(p.SequentialFrac >= 0 && p.SequentialFrac <= 1):
		return p.fieldErr("SequentialFrac", p.SequentialFrac, "[0,1]")
	case !(p.LocalFrac >= 0 && p.LocalFrac <= 1):
		return p.fieldErr("LocalFrac", p.LocalFrac, "[0,1]")
	case !(p.ILP >= 0 && p.ILP <= 1):
		return p.fieldErr("ILP", p.ILP, "[0,1]")
	case !(p.AllocBytesPerKI >= 0 && finite(p.AllocBytesPerKI)):
		return p.fieldErr("AllocBytesPerKI", p.AllocBytesPerKI, "[0,+Inf)")
	// Per-KI event rates are per-instruction probabilities times 1000.
	case !(p.ExceptionPKI >= 0 && p.ExceptionPKI <= 1000):
		return p.fieldErr("ExceptionPKI", p.ExceptionPKI, "[0,1000]")
	case !(p.ContentionPKI >= 0 && p.ContentionPKI <= 1000):
		return p.fieldErr("ContentionPKI", p.ContentionPKI, "[0,1000]")
	case !(p.InstructionScale > 0 && finite(p.InstructionScale)):
		return p.fieldErr("InstructionScale", p.InstructionScale, "(0,+Inf)")
	}
	if sum := p.BranchFrac + p.LoadFrac + p.StoreFrac; sum > 1 {
		return fmt.Errorf("workload %s: instruction mix BranchFrac+LoadFrac+StoreFrac %v+%v+%v above 1", p.Name, p.BranchFrac, p.LoadFrac, p.StoreFrac)
	}
	if p.CodeFootprintBytes <= 0 || p.MethodCount <= 0 {
		return fmt.Errorf("workload %s: CodeFootprintBytes %d / MethodCount %d", p.Name, p.CodeFootprintBytes, p.MethodCount)
	}
	if p.CodeFootprintBytes > MaxCodeFootprintBytes {
		return fmt.Errorf("workload %s: CodeFootprintBytes %d above %d", p.Name, p.CodeFootprintBytes, MaxCodeFootprintBytes)
	}
	if p.MethodCount > MaxMethodCount {
		return fmt.Errorf("workload %s: MethodCount %d above %d", p.Name, p.MethodCount, MaxMethodCount)
	}
	if p.WorkingSetBytes <= 0 {
		return fmt.Errorf("workload %s: WorkingSetBytes %d", p.Name, p.WorkingSetBytes)
	}
	if !p.Managed && (p.AllocBytesPerKI > 0 || p.ExceptionPKI > 0 || p.ContentionPKI > 0) {
		return fmt.Errorf("workload %s: native profile has managed-runtime rates AllocBytesPerKI/ExceptionPKI/ContentionPKI %v/%v/%v", p.Name, p.AllocBytesPerKI, p.ExceptionPKI, p.ContentionPKI)
	}
	if p.DefaultCores <= 0 {
		return fmt.Errorf("workload %s: DefaultCores %d", p.Name, p.DefaultCores)
	}
	return nil
}

// fieldErr reports a float field outside its valid range.
func (p *Profile) fieldErr(field string, v float64, valid string) error {
	return fmt.Errorf("workload %s: %s %v: want a finite value in %s", p.Name, field, v, valid)
}

// Seed returns the deterministic RNG seed for this workload, derived from
// suite and name so every run of every experiment sees the same behavior.
func (p *Profile) Seed() uint64 {
	return rng.HashString(p.Suite.String()) ^ rng.HashString(p.Name)*0x9e3779b97f4a7c15
}

// perturb jitters a copy of the archetype to make one concrete workload.
// Relative spread stays modest so workloads of one category cluster
// together, which is exactly the redundancy §IV exploits.
func perturb(base Profile, name string, r *rng.Rand, spread float64) Profile {
	p := base
	p.Name = name
	j := func(v float64) float64 {
		f := 1 + (r.Float64()*2-1)*spread
		return v * f
	}
	p.BranchFrac = clamp(j(p.BranchFrac), 0.01, 0.40)
	p.LoadFrac = clamp(j(p.LoadFrac), 0.05, 0.55)
	p.StoreFrac = clamp(j(p.StoreFrac), 0.01, 0.35)
	if p.BranchFrac+p.LoadFrac+p.StoreFrac > 0.95 {
		scale := 0.95 / (p.BranchFrac + p.LoadFrac + p.StoreFrac)
		p.BranchFrac *= scale
		p.LoadFrac *= scale
		p.StoreFrac *= scale
	}
	p.KernelFrac = clamp(j(p.KernelFrac), 0, 0.9)
	p.CodeFootprintBytes = int(clamp(j(float64(p.CodeFootprintBytes)), 4096, MaxCodeFootprintBytes))
	p.MethodCount = int(clamp(j(float64(p.MethodCount)), 4, MaxMethodCount))
	p.MethodZipf = clamp(j(p.MethodZipf), 0.3, 1.8)
	p.BranchPredictability = clamp(j(p.BranchPredictability), 0.55, 0.999)
	p.TakenFrac = clamp(j(p.TakenFrac), 0.2, 0.9)
	p.MicrocodeFrac = clamp(j(p.MicrocodeFrac), 0, 0.2)
	p.DivFrac = clamp(j(p.DivFrac), 0, 0.2)
	p.WorkingSetBytes = int64(clamp(j(float64(p.WorkingSetBytes)), 4096, 32<<30))
	p.DataZipf = clamp(j(p.DataZipf), 0, 1.6)
	p.SequentialFrac = clamp(j(p.SequentialFrac), 0, 0.95)
	p.LocalFrac = clamp(j(p.LocalFrac), 0, 0.98)
	p.ILP = clamp(j(p.ILP), 0.1, 0.95)
	if p.Managed {
		p.AllocBytesPerKI = clamp(j(p.AllocBytesPerKI), 0, 1e6)
		p.ExceptionPKI = clamp(j(p.ExceptionPKI), 0, 50)
		p.ContentionPKI = clamp(j(p.ContentionPKI), 0, 50)
	}
	p.InstructionScale = clamp(j(p.InstructionScale), 0.05, 50)
	return p
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
