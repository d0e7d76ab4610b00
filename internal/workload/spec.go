package workload

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strconv"

	"repro/internal/rng"
)

// This file is the suite-spec engine: a declarative JSON format that
// defines a whole benchmark suite as data — defaults, per-workload
// parameter overrides, and seeded generator blocks — compiled by
// ParseSpec into Profile values. The paper's three suites are themselves
// shipped as embedded specs (see registry.go), and
// TestBuiltinCatalogDigest pins the profiles they compile to, bit for
// bit.
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
// Integer fields truncate toward zero after the (float) arithmetic.
type Op struct {
	Field string      `json:"field"`
	Op    string      `json:"op"`
	Value float64     `json:"value,omitempty"`
	Clamp *[2]float64 `json:"clamp,omitempty"`
}

// SpecMeasurement is suite-level measurement policy: sampled suites
// honor the lab's individual-workload limit, and a nonzero divisor
// scales the per-workload instruction budget (instructions/divisor +
// extra).
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

// numField reads and writes one numeric Profile field as a float64.
// Integer fields truncate toward zero on store: an op computes in
// float64 and the result converts to the field's integer type.
type numField struct {
	get func(*Profile) float64
	set func(*Profile, float64)
}

// fieldOf builds the accessors of the field addr selects.
func fieldOf[T float64 | int | int64](addr func(*Profile) *T) numField {
	return numField{
		get: func(p *Profile) float64 { return float64(*addr(p)) },
		set: func(p *Profile, v float64) { *addr(p) = T(v) },
	}
}

// opFields is the op vocabulary: every numeric field of profileParams
// by name (TestOpFieldsMatchParams keeps the two in step).
var opFields = map[string]numField{
	"BranchFrac":           fieldOf(func(p *Profile) *float64 { return &p.BranchFrac }),
	"LoadFrac":             fieldOf(func(p *Profile) *float64 { return &p.LoadFrac }),
	"StoreFrac":            fieldOf(func(p *Profile) *float64 { return &p.StoreFrac }),
	"KernelFrac":           fieldOf(func(p *Profile) *float64 { return &p.KernelFrac }),
	"CodeFootprintBytes":   fieldOf(func(p *Profile) *int { return &p.CodeFootprintBytes }),
	"MethodCount":          fieldOf(func(p *Profile) *int { return &p.MethodCount }),
	"MethodZipf":           fieldOf(func(p *Profile) *float64 { return &p.MethodZipf }),
	"CallEveryInstr":       fieldOf(func(p *Profile) *int { return &p.CallEveryInstr }),
	"BranchPredictability": fieldOf(func(p *Profile) *float64 { return &p.BranchPredictability }),
	"TakenFrac":            fieldOf(func(p *Profile) *float64 { return &p.TakenFrac }),
	"MicrocodeFrac":        fieldOf(func(p *Profile) *float64 { return &p.MicrocodeFrac }),
	"DivFrac":              fieldOf(func(p *Profile) *float64 { return &p.DivFrac }),
	"WorkingSetBytes":      fieldOf(func(p *Profile) *int64 { return &p.WorkingSetBytes }),
	"DataZipf":             fieldOf(func(p *Profile) *float64 { return &p.DataZipf }),
	"SequentialFrac":       fieldOf(func(p *Profile) *float64 { return &p.SequentialFrac }),
	"LocalFrac":            fieldOf(func(p *Profile) *float64 { return &p.LocalFrac }),
	"ILP":                  fieldOf(func(p *Profile) *float64 { return &p.ILP }),
	"AllocBytesPerKI":      fieldOf(func(p *Profile) *float64 { return &p.AllocBytesPerKI }),
	"ExceptionPKI":         fieldOf(func(p *Profile) *float64 { return &p.ExceptionPKI }),
	"ContentionPKI":        fieldOf(func(p *Profile) *float64 { return &p.ContentionPKI }),
	"DefaultCores":         fieldOf(func(p *Profile) *int { return &p.DefaultCores }),
	"InstructionScale":     fieldOf(func(p *Profile) *float64 { return &p.InstructionScale }),
}

// boundOp is a validated Op with its field resolved.
type boundOp struct {
	Op
	field numField
}

// bindOps rejects malformed ops at parse time, so generation never hits
// an undefined adjustment, and resolves each op's field once.
func bindOps(ops []Op) ([]boundOp, error) {
	out := make([]boundOp, len(ops))
	for i, o := range ops {
		f, ok := opFields[o.Field]
		if !ok {
			return nil, fmt.Errorf("unknown op field %q", o.Field)
		}
		switch o.Op {
		case "mul", "add", "set":
		case "clamp":
			if o.Clamp == nil {
				return nil, fmt.Errorf("field %s: op clamp requires a clamp range", o.Field)
			}
		default:
			return nil, fmt.Errorf("field %s: unknown op %q (want mul, add, set or clamp)", o.Field, o.Op)
		}
		if o.Clamp != nil && o.Clamp[0] > o.Clamp[1] {
			return nil, fmt.Errorf("field %s: clamp range [%v,%v] inverted", o.Field, o.Clamp[0], o.Clamp[1])
		}
		out[i] = boundOp{Op: o, field: f}
	}
	return out, nil
}

// apply adjusts one field of p in place, in float64 arithmetic.
func (o *boundOp) apply(p *Profile) {
	cur := o.field.get(p)
	nv := cur
	switch o.Op.Op {
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
	o.field.set(p, nv)
}

// wirePattern constrains registry keys: lowercase-alphanumeric with
// dots, underscores and dashes, starting with a letter or digit.
var wirePattern = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// ParseSpec compiles a suite-spec document into a SuiteDef: it
// strict-decodes the JSON, validates every op and generate block,
// generates every workload eagerly (so a registered suite can never fail
// later), checks name uniqueness and runs Profile.Validate on each
// result.
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
	families := make(map[string][]boundFamily, len(spec.Families))
	for _, key := range sortedFamilyKeys(spec.Families) {
		fams := make([]boundFamily, len(spec.Families[key]))
		for i, fam := range spec.Families[key] {
			if fam.Name == "" {
				return nil, fmt.Errorf("spec %s: families[%s]: unnamed family", spec.Wire, key)
			}
			ops, err := bindOps(fam.Ops)
			if err != nil {
				return nil, fmt.Errorf("spec %s: families[%s] %s: %w", spec.Wire, key, fam.Name, err)
			}
			fams[i] = boundFamily{name: fam.Name, ops: ops}
		}
		families[key] = fams
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
	gens := make([]generator, len(spec.Generate))
	for bi := range spec.Generate {
		if err := gens[bi].bind(&spec.Generate[bi], families, defaults, suite); err != nil {
			return nil, fmt.Errorf("spec %s: generate[%d]: %w", spec.Wire, bi, err)
		}
	}

	profiles := make([]Profile, 0, n)
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
	for i := range gens {
		profiles = gens[i].run(profiles)
	}

	if len(profiles) == 0 {
		return nil, fmt.Errorf("spec %s: no workloads", spec.Wire)
	}
	byName := make(map[string]int, len(profiles))
	for i := range profiles {
		p := &profiles[i]
		if _, dup := byName[p.Name]; dup {
			return nil, fmt.Errorf("spec %s: duplicate workload name %q", spec.Wire, p.Name)
		}
		byName[p.Name] = i
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
		byName:      byName,
	}, nil
}

// boundFamily is a Family with its ops bound.
type boundFamily struct {
	name string
	ops  []boundOp
}

// generator is a validated generate block: archetype = defaults +
// overrides + block category/description, perturbed per emitted
// workload from the block's seeded stream.
type generator struct {
	*SpecGenerate
	arch Profile
	fams []boundFamily // count mode only
	post []boundOp
}

// bind validates the block and resolves everything run needs.
func (g *generator) bind(sg *SpecGenerate, families map[string][]boundFamily, defaults profileParams, suite Suite) error {
	pp, err := applyParams(defaults, sg.Profile)
	if err != nil {
		return err
	}
	g.SpecGenerate = sg
	g.arch = pp.profile(suite)
	g.arch.Category = sg.Category
	g.arch.Description = sg.Description
	if g.post, err = bindOps(sg.Post); err != nil {
		return fmt.Errorf("post: %w", err)
	}
	if len(sg.Seed) == 0 {
		return fmt.Errorf("missing seed parts")
	}
	if sg.Spread < 0 || sg.Spread >= 1 {
		return fmt.Errorf("spread %v outside [0,1)", sg.Spread)
	}
	if (sg.Count > 0) == (len(sg.Names) > 0) {
		return fmt.Errorf("want exactly one of count or names")
	}
	if sg.Count > 0 {
		if sg.Category == "" {
			return fmt.Errorf("count mode requires a category (names derive from it)")
		}
		if g.fams = families[sg.Families]; len(g.fams) == 0 {
			return fmt.Errorf("families %q not defined", sg.Families)
		}
	}
	for _, name := range sg.Names {
		if name == "" {
			return fmt.Errorf("empty workload name")
		}
	}
	return nil
}

// run appends the block's workloads to out. Count mode names them
// "Category.Family.NN", cycling through the family list.
func (g *generator) run(out []Profile) []Profile {
	parts := make([]uint64, len(g.Seed))
	for i, s := range g.Seed {
		parts[i] = rng.HashString(s)
	}
	r := rng.NewFrom(parts...)
	if g.Count > 0 {
		var name []byte
		for i := 0; i < g.Count; i++ {
			fam := &g.fams[i%len(g.fams)]
			name = append(name[:0], g.Category...)
			name = append(name, '.')
			name = append(name, fam.name...)
			name = append(name, '.')
			if k := i / len(g.fams); k < 10 {
				name = append(name, '0', byte('0'+k))
			} else {
				name = strconv.AppendInt(name, int64(k), 10)
			}
			out = append(out, perturb(g.arch, string(name), r, g.Spread))
			p := &out[len(out)-1]
			for j := range fam.ops {
				fam.ops[j].apply(p)
			}
			for j := range g.post {
				g.post[j].apply(p)
			}
		}
		return out
	}
	for _, name := range g.Names {
		out = append(out, perturb(g.arch, name, r, g.Spread))
		p := &out[len(out)-1]
		for j := range g.post {
			g.post[j].apply(p)
		}
	}
	return out
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
