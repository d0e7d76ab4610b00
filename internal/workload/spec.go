package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"regexp"
	"sort"

	"repro/internal/rng"
)

// This file is the suite-spec engine: a declarative JSON format that
// defines a whole benchmark suite as data — defaults, per-workload
// parameter overrides, and seeded generator blocks — compiled by
// ParseSpec into the same Profile values the old hard-coded Go tables
// produced. The paper's three suites are themselves shipped as embedded
// specs (see registry.go), proven bit-identical to the legacy tables by
// TestBuiltinSpecsBitIdentical.
//
// Determinism contract: everything a spec generates is a pure function
// of the spec bytes. Generator blocks draw from an rng stream seeded
// only by the spec's own seed strings (rng.NewFrom over rng.HashString
// of each part), and each workload's simulation seed stays
// Profile.Seed() = f(suite name, workload name), so two processes
// loading the same spec produce identical profiles and identical
// mstore content hashes.

// Spec format identity. A spec document must carry exactly this format
// string and version so unrelated JSON is rejected early.
const (
	SpecFormat  = "charnet-suite-spec"
	SpecVersion = 1
)

// MaxSuiteWorkloads bounds the workloads one spec may define, 22 times
// the largest built-in suite: a generator's count otherwise sizes its
// output with no limit but memory.
const MaxSuiteWorkloads = 65536

// Spec is the top-level suite-spec document.
type Spec struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// Wire is the registry key (e.g. "spec2017mem"): lowercase, stable,
	// used by -suite-spec consumers, /v1/measure and cache keys.
	Wire string `json:"wire"`
	// Suite is the display name (Profile.Suite). It feeds Seed(), so it
	// is part of every workload's deterministic identity.
	Suite       string `json:"suite"`
	Description string `json:"description,omitempty"`
	// Defaults is a profileParams object every workload starts from.
	Defaults json.RawMessage `json:"defaults,omitempty"`
	// Families are named op lists referenced by generate blocks.
	Families map[string][]Family `json:"families,omitempty"`
	// Workloads are explicit entries, emitted first in document order.
	Workloads []SpecWorkload `json:"workloads,omitempty"`
	// Generate blocks emit seeded perturbations of an archetype, in
	// document order after the explicit workloads.
	Generate []SpecGenerate `json:"generate,omitempty"`
	// Measurement carries suite-level measurement policy.
	Measurement *SpecMeasurement `json:"measurement,omitempty"`
}

// SpecWorkload is one explicit workload: defaults plus an override
// object holding only the parameters that differ.
type SpecWorkload struct {
	Name        string          `json:"name"`
	Category    string          `json:"category,omitempty"`
	Description string          `json:"description,omitempty"`
	Profile     json.RawMessage `json:"profile,omitempty"`
}

// SpecGenerate emits workloads as seeded perturbations of an archetype
// (defaults plus the block's profile overrides). Exactly one of Count
// or Names selects the mode:
//
//   - Count: emit Count workloads named "Category.Family.NN", cycling
//     through the referenced family list (the family's ops are applied
//     after perturbation) — the .NET microbenchmark shape.
//   - Names: emit one workload per name from a single rng stream — the
//     ASP.NET scenario-variant shape.
type SpecGenerate struct {
	Category    string          `json:"category,omitempty"`
	Description string          `json:"description,omitempty"`
	Profile     json.RawMessage `json:"profile,omitempty"`
	// Seed parts feed rng.NewFrom(rng.HashString(part)...) for this
	// block's perturbation stream.
	Seed   []string `json:"seed"`
	Spread float64  `json:"spread"`
	Count  int      `json:"count,omitempty"`
	// Families names an entry in Spec.Families; required with Count.
	Families string   `json:"families,omitempty"`
	Names    []string `json:"names,omitempty"`
	// Post ops run on every emitted workload, after family ops.
	Post []Op `json:"post,omitempty"`
}

// Family is one named sub-benchmark family: workloads of the family
// share the listed parameter nudges beyond the block archetype.
type Family struct {
	Name string `json:"name"`
	Ops  []Op   `json:"ops,omitempty"`
}

// Op is one field adjustment: cur = op(cur, value), optionally clamped.
// "mul" multiplies, "add" adds, "set" replaces, "clamp" only clamps.
// Integer fields truncate toward zero after the (float) arithmetic,
// matching int(clamp(...)) in the legacy tables.
type Op struct {
	Field string      `json:"field"`
	Op    string      `json:"op"`
	Value float64     `json:"value,omitempty"`
	Clamp *[2]float64 `json:"clamp,omitempty"`
}

// SpecMeasurement is suite-level measurement policy, mirroring what the
// experiments Lab hard-coded per legacy suite: sampled suites honor the
// lab's individual-workload limit, and a nonzero divisor scales the
// per-workload instruction budget (instructions/divisor + extra).
type SpecMeasurement struct {
	InstructionsDivisor uint64 `json:"instructionsDivisor,omitempty"`
	InstructionsExtra   uint64 `json:"instructionsExtra,omitempty"`
	Sampled             bool   `json:"sampled,omitempty"`
}

// profileParams are the spec-settable behavioral parameters of a
// Profile. Field names double as the JSON keys (no tags) so the spec
// vocabulary is exactly the Profile field names; decoding is strict, so
// a misspelled key is an error, not a silently-ignored default.
type profileParams struct {
	BranchFrac           float64
	LoadFrac             float64
	StoreFrac            float64
	KernelFrac           float64
	CodeFootprintBytes   int
	MethodCount          int
	MethodZipf           float64
	CallEveryInstr       int
	BranchPredictability float64
	TakenFrac            float64
	MicrocodeFrac        float64
	DivFrac              float64
	WorkingSetBytes      int64
	DataZipf             float64
	SequentialFrac       float64
	LocalFrac            float64
	ILP                  float64
	Managed              bool
	AllocBytesPerKI      float64
	ExceptionPKI         float64
	ContentionPKI        float64
	DefaultCores         int
	InstructionScale     float64
}

// profile converts the parameters into a Profile of the given suite.
func (pp profileParams) profile(s Suite) Profile {
	return Profile{
		Suite:                s,
		BranchFrac:           pp.BranchFrac,
		LoadFrac:             pp.LoadFrac,
		StoreFrac:            pp.StoreFrac,
		KernelFrac:           pp.KernelFrac,
		CodeFootprintBytes:   pp.CodeFootprintBytes,
		MethodCount:          pp.MethodCount,
		MethodZipf:           pp.MethodZipf,
		CallEveryInstr:       pp.CallEveryInstr,
		BranchPredictability: pp.BranchPredictability,
		TakenFrac:            pp.TakenFrac,
		MicrocodeFrac:        pp.MicrocodeFrac,
		DivFrac:              pp.DivFrac,
		WorkingSetBytes:      pp.WorkingSetBytes,
		DataZipf:             pp.DataZipf,
		SequentialFrac:       pp.SequentialFrac,
		LocalFrac:            pp.LocalFrac,
		ILP:                  pp.ILP,
		Managed:              pp.Managed,
		AllocBytesPerKI:      pp.AllocBytesPerKI,
		ExceptionPKI:         pp.ExceptionPKI,
		ContentionPKI:        pp.ContentionPKI,
		DefaultCores:         pp.DefaultCores,
		InstructionScale:     pp.InstructionScale,
	}
}

// paramsOf extracts the spec-settable parameters of a Profile (the
// inverse of profile; used by the spec builders and regen tests).
func paramsOf(p Profile) profileParams {
	return profileParams{
		BranchFrac:           p.BranchFrac,
		LoadFrac:             p.LoadFrac,
		StoreFrac:            p.StoreFrac,
		KernelFrac:           p.KernelFrac,
		CodeFootprintBytes:   p.CodeFootprintBytes,
		MethodCount:          p.MethodCount,
		MethodZipf:           p.MethodZipf,
		CallEveryInstr:       p.CallEveryInstr,
		BranchPredictability: p.BranchPredictability,
		TakenFrac:            p.TakenFrac,
		MicrocodeFrac:        p.MicrocodeFrac,
		DivFrac:              p.DivFrac,
		WorkingSetBytes:      p.WorkingSetBytes,
		DataZipf:             p.DataZipf,
		SequentialFrac:       p.SequentialFrac,
		LocalFrac:            p.LocalFrac,
		ILP:                  p.ILP,
		Managed:              p.Managed,
		AllocBytesPerKI:      p.AllocBytesPerKI,
		ExceptionPKI:         p.ExceptionPKI,
		ContentionPKI:        p.ContentionPKI,
		DefaultCores:         p.DefaultCores,
		InstructionScale:     p.InstructionScale,
	}
}

// applyParams strict-decodes an override object into a copy of base;
// absent keys keep the base value, unknown keys are errors.
func applyParams(base profileParams, raw json.RawMessage) (profileParams, error) {
	if len(raw) == 0 {
		return base, nil
	}
	pp := base
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&pp); err != nil {
		return pp, err
	}
	return pp, nil
}

// opFields is the op vocabulary: numeric Profile fields by name.
var opFields = func() map[string]bool {
	out := make(map[string]bool)
	t := reflect.TypeOf(profileParams{})
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Type.Kind() {
		case reflect.Float64, reflect.Int, reflect.Int64:
			out[f.Name] = true
		}
	}
	return out
}()

// validateOp rejects malformed ops at parse time so generation never
// hits an undefined adjustment.
func validateOp(o Op) error {
	if !opFields[o.Field] {
		return fmt.Errorf("unknown op field %q", o.Field)
	}
	switch o.Op {
	case "mul", "add", "set":
	case "clamp":
		if o.Clamp == nil {
			return fmt.Errorf("field %s: op clamp requires a clamp range", o.Field)
		}
	default:
		return fmt.Errorf("field %s: unknown op %q (want mul, add, set or clamp)", o.Field, o.Op)
	}
	if o.Clamp != nil && o.Clamp[0] > o.Clamp[1] {
		return fmt.Errorf("field %s: clamp range [%v,%v] inverted", o.Field, o.Clamp[0], o.Clamp[1])
	}
	return nil
}

// applyOp adjusts one field of p in place. Arithmetic is float64
// throughout; integer fields truncate on store, exactly like the
// legacy tables' int(clamp(float64(v)*f, lo, hi)).
func applyOp(p *Profile, o Op) {
	f := reflect.ValueOf(p).Elem().FieldByName(o.Field)
	var cur float64
	switch f.Kind() {
	case reflect.Float64:
		cur = f.Float()
	case reflect.Int, reflect.Int64:
		cur = float64(f.Int())
	}
	nv := cur
	switch o.Op {
	case "mul":
		nv = cur * o.Value
	case "add":
		nv = cur + o.Value
	case "set":
		nv = o.Value
	case "clamp":
		// arithmetic-free; the clamp below does the work
	}
	if o.Clamp != nil {
		nv = clamp(nv, o.Clamp[0], o.Clamp[1])
	}
	switch f.Kind() {
	case reflect.Float64:
		f.SetFloat(nv)
	case reflect.Int, reflect.Int64:
		f.SetInt(int64(nv))
	}
}

// wirePattern constrains registry keys: lowercase-alphanumeric with
// dots, underscores and dashes, starting with a letter or digit.
var wirePattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// ParseSpec compiles a suite-spec document into a SuiteDef: it
// strict-decodes the JSON, validates the op vocabulary, generates every
// workload eagerly (so a registered suite can never fail later), checks
// name uniqueness and runs Profile.Validate on each result.
func ParseSpec(data []byte) (*SuiteDef, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if spec.Format != SpecFormat {
		return nil, fmt.Errorf("spec: format %q, want %q", spec.Format, SpecFormat)
	}
	if spec.Version != SpecVersion {
		return nil, fmt.Errorf("spec: version %d, want %d", spec.Version, SpecVersion)
	}
	if !wirePattern.MatchString(spec.Wire) {
		return nil, fmt.Errorf("spec: wire name %q must match %s", spec.Wire, wirePattern)
	}
	if spec.Suite == "" {
		return nil, fmt.Errorf("spec %s: missing suite display name", spec.Wire)
	}
	for _, key := range sortedFamilyKeys(spec.Families) {
		for _, fam := range spec.Families[key] {
			if fam.Name == "" {
				return nil, fmt.Errorf("spec %s: families[%s]: unnamed family", spec.Wire, key)
			}
			for _, o := range fam.Ops {
				if err := validateOp(o); err != nil {
					return nil, fmt.Errorf("spec %s: families[%s] %s: %w", spec.Wire, key, fam.Name, err)
				}
			}
		}
	}

	// Bound the suite before generating any of it.
	n := len(spec.Workloads)
	for bi, g := range spec.Generate {
		if g.Count > MaxSuiteWorkloads {
			return nil, fmt.Errorf("spec %s: generate[%d]: count %d above %d", spec.Wire, bi, g.Count, MaxSuiteWorkloads)
		}
		n += max(g.Count, 0) + len(g.Names)
	}
	if n > MaxSuiteWorkloads {
		return nil, fmt.Errorf("spec %s: %d workloads, above %d", spec.Wire, n, MaxSuiteWorkloads)
	}

	defaults, err := applyParams(profileParams{}, spec.Defaults)
	if err != nil {
		return nil, fmt.Errorf("spec %s: defaults: %w", spec.Wire, err)
	}
	suite := Suite(spec.Suite)
	var profiles []Profile

	for _, w := range spec.Workloads {
		if w.Name == "" {
			return nil, fmt.Errorf("spec %s: unnamed workload entry", spec.Wire)
		}
		pp, err := applyParams(defaults, w.Profile)
		if err != nil {
			return nil, fmt.Errorf("spec %s: workload %s: %w", spec.Wire, w.Name, err)
		}
		p := pp.profile(suite)
		p.Name = w.Name
		p.Category = w.Category
		p.Description = w.Description
		profiles = append(profiles, p)
	}

	for bi, g := range spec.Generate {
		ps, err := runGenerate(&spec, defaults, suite, g)
		if err != nil {
			return nil, fmt.Errorf("spec %s: generate[%d]: %w", spec.Wire, bi, err)
		}
		profiles = append(profiles, ps...)
	}

	if len(profiles) == 0 {
		return nil, fmt.Errorf("spec %s: no workloads", spec.Wire)
	}
	seen := make(map[string]bool, len(profiles))
	for i := range profiles {
		p := &profiles[i]
		if seen[p.Name] {
			return nil, fmt.Errorf("spec %s: duplicate workload name %q", spec.Wire, p.Name)
		}
		seen[p.Name] = true
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("spec %s: %w", spec.Wire, err)
		}
	}

	var meas SpecMeasurement
	if spec.Measurement != nil {
		meas = *spec.Measurement
	}
	return &SuiteDef{
		Wire:        spec.Wire,
		Suite:       suite,
		Description: spec.Description,
		Measurement: meas,
		profiles:    profiles,
	}, nil
}

// runGenerate executes one generator block: archetype = defaults +
// overrides + block category/description, perturbed per emitted
// workload from the block's seeded stream.
func runGenerate(spec *Spec, defaults profileParams, suite Suite, g SpecGenerate) ([]Profile, error) {
	pp, err := applyParams(defaults, g.Profile)
	if err != nil {
		return nil, err
	}
	arch := pp.profile(suite)
	arch.Category = g.Category
	arch.Description = g.Description
	for _, o := range g.Post {
		if err := validateOp(o); err != nil {
			return nil, fmt.Errorf("post: %w", err)
		}
	}
	if len(g.Seed) == 0 {
		return nil, fmt.Errorf("missing seed parts")
	}
	if g.Spread < 0 || g.Spread >= 1 {
		return nil, fmt.Errorf("spread %v outside [0,1)", g.Spread)
	}
	if (g.Count > 0) == (len(g.Names) > 0) {
		return nil, fmt.Errorf("want exactly one of count or names")
	}
	parts := make([]uint64, len(g.Seed))
	for i, s := range g.Seed {
		parts[i] = rng.HashString(s)
	}
	r := rng.NewFrom(parts...)

	var out []Profile
	if g.Count > 0 {
		if g.Category == "" {
			return nil, fmt.Errorf("count mode requires a category (names derive from it)")
		}
		fams := spec.Families[g.Families]
		if len(fams) == 0 {
			return nil, fmt.Errorf("families %q not defined", g.Families)
		}
		for i := 0; i < g.Count; i++ {
			fam := fams[i%len(fams)]
			name := fmt.Sprintf("%s.%s.%02d", g.Category, fam.Name, i/len(fams))
			p := perturb(arch, name, r, g.Spread)
			for _, o := range fam.Ops {
				applyOp(&p, o)
			}
			for _, o := range g.Post {
				applyOp(&p, o)
			}
			out = append(out, p)
		}
		return out, nil
	}
	for _, name := range g.Names {
		if name == "" {
			return nil, fmt.Errorf("empty workload name")
		}
		p := perturb(arch, name, r, g.Spread)
		for _, o := range g.Post {
			applyOp(&p, o)
		}
		out = append(out, p)
	}
	return out, nil
}

// sortedFamilyKeys gives a deterministic walk order over the family
// table (map iteration order must never shape output or errors).
func sortedFamilyKeys(m map[string][]Family) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
