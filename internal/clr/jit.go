package clr

import (
	"fmt"
	"slices"

	"repro/internal/rng"
)

// codePageBytes is the JIT code-page granularity: fresh code lands on new
// 4 KiB pages, which is why JIT activity shows up in I-TLB misses and page
// faults (§VII-A1).
const codePageBytes = 4096

// Method is one JIT-compilable method.
type Method struct {
	ID       int
	Size     int    // machine-code bytes once compiled
	Addr     uint64 // 0 until compiled
	Compiled bool
	Calls    uint64
	Tier     int // 0 = quick tier, 1 = optimized re-JIT
}

// JITConfig parameterizes the JIT model.
type JITConfig struct {
	// MethodCount and CodeBytes describe the workload's hot code: the
	// compiled footprint is spread over MethodCount methods.
	MethodCount int
	CodeBytes   int

	// TierUpCalls is the call count at which a method is recompiled at a
	// higher tier, landing at a NEW address (tiered compilation). 0
	// disables tier-up.
	TierUpCalls uint64

	// RelocationEnabled can be disabled for the ablation bench isolating
	// the cold-start cost of JIT code motion: when false, tier-up reuses
	// the original address (hypothetical "in-place re-JIT" hardware/ABI).
	RelocationEnabled bool

	// CompileCostPerByte is the number of JIT-compiler instructions
	// executed per byte of generated code.
	CompileCostPerByte float64

	// PageAlign starts every method on a fresh code page, modeling an
	// immature JIT back end with poor code layout (the Arm software-stack
	// situation of §V-D): the instruction footprint in pages explodes,
	// and with it I-TLB pressure.
	PageAlign bool
}

// JIT simulates the just-in-time compiler: method-granular compilation on
// first call, bump-pointer code-page allocation, and tiered recompilation
// that relocates hot methods to fresh pages.
type JIT struct {
	cfg     JITConfig
	methods []Method

	codeBase uint64
	codeNext uint64

	// NewPages counts fresh code pages mapped (each is an OS page fault
	// and a cold I-TLB/I-cache region).
	NewPages     uint64
	Compilations uint64
	Relocations  uint64

	log *EventLog
}

// NewJIT builds the method table. Method sizes vary around the mean so
// that code-page boundaries fall irregularly, seeded deterministically.
func NewJIT(cfg JITConfig, log *EventLog, r *rng.Rand) (*JIT, error) {
	j := new(JIT)
	if err := j.Reset(cfg, log, r); err != nil {
		return nil, err
	}
	return j, nil
}

// Reset makes j the JIT that NewJIT(cfg, log, r) builds, drawing the same
// numbers from r, and keeps j's method table storage when it is large
// enough. A configuration NewJIT rejects leaves j unchanged.
func (j *JIT) Reset(cfg JITConfig, log *EventLog, r *rng.Rand) error {
	if cfg.MethodCount <= 0 {
		return fmt.Errorf("clr: method count %d", cfg.MethodCount)
	}
	if cfg.CodeBytes < cfg.MethodCount*16 {
		return fmt.Errorf("clr: code footprint %d too small for %d methods", cfg.CodeBytes, cfg.MethodCount)
	}
	if cfg.CompileCostPerByte <= 0 {
		cfg.CompileCostPerByte = 50
	}
	*j = JIT{
		cfg:      cfg,
		methods:  slices.Grow(j.methods[:0], cfg.MethodCount)[:cfg.MethodCount],
		codeBase: 0x0000_7fff_0000_0000, // JIT code region
		log:      log,
	}
	j.codeNext = j.codeBase
	mean := cfg.CodeBytes / cfg.MethodCount
	for i := range j.methods {
		size := mean/2 + r.Intn(mean) // mean/2 .. 1.5*mean
		if size < 16 {
			size = 16
		}
		j.methods[i] = Method{ID: i, Size: size}
	}
	return nil
}

// MethodCount returns the number of methods.
func (j *JIT) MethodCount() int { return len(j.methods) }

// Precompile compiles the given fraction of methods up front, silently:
// no events, no cost accounting, Tier 1 (already optimized). It models an
// application that has been warm for a long time before measurement
// begins (§III-A's warmup discarding); the uncompiled tail plus code churn
// supply the steady-state JIT activity the paper studies.
func (j *JIT) Precompile(fraction float64, r *rng.Rand) {
	if fraction <= 0 {
		return
	}
	for i := range j.methods {
		if fraction >= 1 || r.Float64() < fraction {
			m := &j.methods[i]
			if j.cfg.PageAlign {
				j.codeNext = (j.codeNext + codePageBytes - 1) &^ uint64(codePageBytes-1)
			}
			m.Addr = j.codeNext
			j.codeNext += uint64(m.Size)
			m.Compiled = true
			m.Tier = 1
		}
	}
}

// CallResult describes what a method call did to machine state.
type CallResult struct {
	// Compiled is true when the call JIT-compiled the method (first call
	// or tier-up).
	Compiled bool
	// Relocated is true when compilation moved the method to a new
	// address (tier-up with relocation): PC-indexed predictor/cache state
	// for the old address is dead weight and the new range is cold.
	Relocated bool
	// OldAddr/OldSize describe the abandoned code range when Relocated.
	OldAddr uint64
	OldSize int
	// CompileInstructions is the JIT-compiler instruction overhead to
	// charge to this call.
	CompileInstructions uint64
	// NewPages is how many fresh OS pages the compilation touched (page
	// faults).
	NewPages int
}

// Call simulates invoking method id at the given cycle and returns the
// method's current code address plus compilation side effects.
func (j *JIT) Call(id int, cycle uint64) (addr uint64, size int, res CallResult) {
	m := &j.methods[id]
	m.Calls++

	if !m.Compiled {
		res = j.compile(m, cycle)
	} else if j.cfg.TierUpCalls > 0 && m.Tier == 0 && m.Calls >= j.cfg.TierUpCalls {
		// Tier-up: recompile at higher optimization. With relocation the
		// method moves to fresh pages; without, it is patched in place.
		res.OldAddr, res.OldSize = m.Addr, m.Size
		if j.cfg.RelocationEnabled {
			m.Compiled = false
			// compile records the pre-relocation address in res.OldAddr.
			res = j.compile(m, cycle)
			res.Relocated = true
			j.Relocations++
		} else {
			if j.log != nil {
				j.log.Emit(EvJITStarted, cycle)
			}
			j.Compilations++
			res.Compiled = true
			res.CompileInstructions = uint64(float64(m.Size) * j.cfg.CompileCostPerByte * 2) // optimizing tier is slower
		}
		m.Tier = 1
	}
	return m.Addr, m.Size, res
}

// compile assigns fresh code pages and accounts costs.
func (j *JIT) compile(m *Method, cycle uint64) CallResult {
	oldAddr, oldSize := m.Addr, m.Size
	if j.cfg.PageAlign {
		j.codeNext = (j.codeNext + codePageBytes - 1) &^ uint64(codePageBytes-1)
	}
	m.Addr = j.codeNext
	j.codeNext += uint64(m.Size)
	m.Compiled = true
	j.Compilations++
	if j.log != nil {
		j.log.Emit(EvJITStarted, cycle)
	}
	startPage := m.Addr / codePageBytes
	endPage := (m.Addr + uint64(m.Size) - 1) / codePageBytes
	pages := int(endPage - startPage + 1)
	j.NewPages += uint64(pages)
	return CallResult{
		Compiled:            true,
		OldAddr:             oldAddr,
		OldSize:             oldSize,
		CompileInstructions: uint64(float64(m.Size) * j.cfg.CompileCostPerByte),
		NewPages:            pages,
	}
}

// Invalidate marks a method as uncompiled at tier 0, modeling code churn:
// a new request path, a regenerated generic instantiation, or an invalidated
// assumption. Its next call JIT-compiles it onto fresh pages.
func (j *JIT) Invalidate(id int) {
	m := &j.methods[id]
	m.Compiled = false
	m.Tier = 0
	m.Calls = 0
}

// CodeRegion returns the span of generated code so far: [base, next).
func (j *JIT) CodeRegion() (base, next uint64) { return j.codeBase, j.codeNext }

// CompiledBytes returns the total bytes of machine code emitted.
func (j *JIT) CompiledBytes() uint64 { return j.codeNext - j.codeBase }
