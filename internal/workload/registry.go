package workload

import (
	"embed"
	"fmt"
	"os"
	"sync"
)

// The suite registry: every benchmark suite the pipeline can measure is
// a SuiteDef — built-in (the paper's three, embedded below as specs) or
// external (loaded from a -suite-spec file). Layers above resolve
// suites by wire name through a Registry instead of switching on an
// enum, which is what lets a brand-new suite flow through the whole
// PCA→cluster→subset pipeline with zero driver code.

// SuiteDef is one compiled suite: identity, measurement policy and the
// fully generated profile list. Values are immutable after ParseSpec;
// Profiles returns a copy so callers cannot alias the backing array.
type SuiteDef struct {
	Wire        string // registry key ("dotnet", "spec2017mem", ...)
	Suite       Suite  // display name; feeds Profile.Seed
	Description string
	Builtin     bool
	Measurement SpecMeasurement
	profiles    []Profile
	byName      map[string]int // index into profiles
}

// Profiles returns the suite's workloads in catalog order.
func (d *SuiteDef) Profiles() []Profile {
	out := make([]Profile, len(d.profiles))
	copy(out, d.profiles)
	return out
}

// Len is the workload count.
func (d *SuiteDef) Len() int { return len(d.profiles) }

// Name is the name of the i-th workload in catalog order.
func (d *SuiteDef) Name(i int) string { return d.profiles[i].Name }

// Profile is the i-th workload in catalog order.
func (d *SuiteDef) Profile(i int) Profile { return d.profiles[i] }

// Lookup finds one workload by name.
func (d *SuiteDef) Lookup(name string) (Profile, bool) {
	i, ok := d.byName[name]
	if !ok {
		return Profile{}, false
	}
	return d.profiles[i], true
}

// Registry is an ordered, wire-name-keyed suite collection.
// Registration happens during process startup (flag handling, daemon
// boot); reads afterwards are safe from any goroutine.
type Registry struct {
	mu     sync.RWMutex
	defs   []*SuiteDef
	byWire map[string]*SuiteDef
}

// NewRegistry returns a registry holding the built-in suites, ready for
// external registrations.
func NewRegistry() *Registry {
	b := Builtin()
	r := &Registry{byWire: make(map[string]*SuiteDef, len(b.defs))}
	r.defs = append(r.defs, b.defs...)
	for _, def := range r.defs {
		r.byWire[def.Wire] = def
	}
	return r
}

// Register adds a suite; wire names must be unique.
func (r *Registry) Register(def *SuiteDef) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byWire[def.Wire]; ok {
		return fmt.Errorf("workload: suite %q already registered", def.Wire)
	}
	r.defs = append(r.defs, def)
	r.byWire[def.Wire] = def
	return nil
}

// RegisterSpecFile parses a suite-spec file and registers it.
func (r *Registry) RegisterSpecFile(path string) (*SuiteDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	def, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("workload: %s: %w", path, err)
	}
	if err := r.Register(def); err != nil {
		return nil, err
	}
	return def, nil
}

// Lookup resolves a suite by wire name.
func (r *Registry) Lookup(wire string) (*SuiteDef, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	def, ok := r.byWire[wire]
	return def, ok
}

// Suites returns the suites in registration order (built-ins first).
func (r *Registry) Suites() []*SuiteDef {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*SuiteDef, len(r.defs))
	copy(out, r.defs)
	return out
}

// Names returns the wire names in registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.defs))
	for i, d := range r.defs {
		out[i] = d.Wire
	}
	return out
}

// builtinSpecs holds the paper's suites as suite-spec documents, the
// one source of the built-in catalogs. TestBuiltinCatalogDigest pins
// every field of every profile they generate, since each workload's
// identity feeds its seed, the mstore keys and the benchmark digests.
//
//go:embed specs/*.json
var builtinSpecs embed.FS

// builtinOrder fixes the registration (and SuiteNames) order.
var builtinOrder = []string{"dotnet", "dotnet-individual", "aspnet", "spec"}

var (
	builtinOnce sync.Once
	builtinReg  *Registry
)

// Builtin returns the shared registry of embedded suites. It is
// read-only: register external suites on a NewRegistry copy. A broken
// embedded spec is a build defect, hence the panic.
func Builtin() *Registry {
	builtinOnce.Do(func() {
		r := &Registry{byWire: make(map[string]*SuiteDef, len(builtinOrder))}
		for _, wire := range builtinOrder {
			data, err := builtinSpecs.ReadFile("specs/" + wire + ".json")
			if err != nil {
				panic(fmt.Sprintf("workload: embedded spec %s: %v", wire, err))
			}
			def, err := ParseSpec(data)
			if err != nil {
				panic(fmt.Sprintf("workload: embedded spec %s: %v", wire, err))
			}
			if def.Wire != wire {
				panic(fmt.Sprintf("workload: embedded spec %s declares wire %q", wire, def.Wire))
			}
			def.Builtin = true
			r.defs = append(r.defs, def)
			r.byWire[wire] = def
		}
		builtinReg = r
	})
	return builtinReg
}
