package sim

import (
	"fmt"

	"repro/internal/branch"
	"repro/internal/clr"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/topdown"
	"repro/internal/workload"
)

// Options controls one simulation run.
type Options struct {
	// Instructions per core (application instructions; runtime overhead
	// adds on top). 0 uses DefaultInstructions.
	Instructions uint64
	// Cores overrides the workload's DefaultCores when > 0.
	Cores int
	// GCMode selects workstation or server GC for managed workloads.
	GCMode clr.GCMode
	// MaxHeapBytes caps the managed heap; 0 uses 2000 MiB (the middle of
	// the paper's Fig 14 sweep).
	MaxHeapBytes int64
	// AllocScale is the time-compression factor for heap pressure: the
	// nursery fills AllocScale times faster than the profile's real
	// allocation rate, so GC periods that span hundreds of milliseconds
	// on hardware fall inside the simulation window. Traffic-side effects
	// (page faults, DRAM writes) use the *real* rate. 0 uses 400.
	AllocScale float64
	// Policy selects the cache replacement policy (LRU by default).
	Policy mem.ReplacementPolicy
	// DisableWarmup skips the warmup pass whose stats are discarded
	// (§III-A discards the first of 15 runs).
	DisableWarmup bool
	// DisableCompaction turns off GC heap compaction (ablation).
	DisableCompaction bool
	// DisableRelocation keeps tiered-up JIT code at its old address
	// (ablation for the §VII-A1 cold-start effect).
	DisableRelocation bool
	// TierUpCalls sets the JIT tier-up threshold; 0 uses 400.
	TierUpCalls uint64
	// PrecompiledFrac is the fraction of methods compiled before
	// measurement (a long-warm process). Negative disables precompilation
	// entirely (cold-start studies); 0 uses 0.995.
	PrecompiledFrac float64
	// SampleInterval, in cycles, enables periodic counter sampling for the
	// §VII-A correlation study. 0 disables sampling.
	SampleInterval float64
	// SeedSalt perturbs the run's RNG stream (distinct measurement runs).
	SeedSalt uint64
	// Assist enables the speculative cross-stack hardware optimizations
	// of §VIII (what-if extensions; see HWAssist).
	Assist HWAssist
	// Obs, when set, is the per-workload observability span this run
	// reports into (prewarm/run child spans, instructions-simulated
	// counter). It is not a simulation input: results are identical with
	// or without it, and it is excluded from measurement-store keys.
	Obs *obs.Span `json:"-"`
}

// DefaultInstructions is the per-core instruction budget when Options does
// not specify one: large enough for cache/TLB steady state on the hot
// paths, small enough to sweep thousands of workloads.
const DefaultInstructions = 60_000

// Result is a completed run.
type Result struct {
	Workload workload.Profile
	Machine  *machine.Config
	Cores    int

	Counters Counters
	Profile  topdown.Profile
	Samples  []Sample
}

const (
	lineBytes = 64
	pageBytes = 4096

	kernelCodeBase  = 0xffff_8000_0000_0000
	kernelDataBase  = 0xffff_9000_0000_0000
	nativeCodeBase  = 0x0000_5555_0000_0000
	nativeDataBase  = 0x0000_6000_0000_0000
	stackBase       = 0x0000_7ffe_0000_0000
	kernelCodeBytes = 3 << 20
	kernelMethods   = 1800
	dataBuckets     = 512
	warmRegionCap   = 1 << 20 // hot-data tier size cap
)

// pcHash turns a PC into a stable pseudo-random 53-bit fraction, used to
// assign each static instruction a fixed kind and each branch site a fixed
// bias — real code has stable per-site behavior, which is what lets BTBs
// and predictors work at all.
func pcHash(pc uint64) float64 {
	h := pc * 0x9e3779b97f4a7c15
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return float64(h>>11) / (1 << 53)
}

// core is the per-core simulation state.
type core struct {
	id int
	r  *rng.Rand

	l1i, l1d, l2 *mem.Cache
	l3           *mem.Cache // private LLC (nil when shared)
	tlbs         *mem.TLBSet
	bp           *branch.Predictor

	// Code walk state.
	methodID    int
	pc          uint64
	methodStart uint64
	methodEnd   uint64
	lastILine   uint64
	lastIPage   uint64
	callIn      int
	kernelIn    int // remaining kernel-episode instructions
	kernelPC    uint64
	kernelEnd   uint64
	kernelMeth  int
	seqAddr     uint64
	storeStreak int

	allocCarry float64 // fractional real allocation bytes

	c Counters
}

// engine ties the shared structures together.
type engine struct {
	p    workload.Profile
	m    *machine.Config
	opts Options

	cores     []*core
	sharedLLC *noc.SharedLLC
	mem       *dram.Controller

	// Managed runtime (nil for native workloads).
	jit  *clr.JIT
	heap *clr.Heap
	log  *clr.EventLog

	// Native code layout.
	nativeAddrs []uint64
	nativeSizes []int

	// Kernel code layout (static).
	kernelAddrs []uint64
	kernelSizes []int

	// Popularity tables, shared read-only by the cores (each draws from
	// its own generator).
	dzipf *rng.Zipf // warm-data bucket popularity
	mzipf *rng.Zipf // method popularity (flatter)

	// Derived parameters.
	dsbShare   float64
	coldFrac   float64 // cold-data tier share of random accesses
	allocRate  float64 // real allocation bytes per instruction
	allocScale float64

	// Nursery window in real (uncompressed) bytes: the span of fresh
	// allocation addresses since the last collection. GC compaction resets
	// it, so the same address window is recycled — cache-hot — on the next
	// cycle. This is the mechanism behind the paper's finding that GC
	// *improves* cache behavior (§VII-A2).
	nurseryReal   float64
	survivorsReal float64 // grows only when compaction is disabled

	samples      []Sample
	nextSample   float64
	prevSnapshot Counters

	effFootprint int // code footprint after stack-friction scaling

	// Hot-path invariants, hoisted out of the per-instruction loop by
	// setup/refreshDataLayout. Every value is exactly the expression the
	// per-instruction code used to evaluate, computed once, so behavior
	// (and therefore every counter) is bit-identical to the unhoisted
	// form.
	width      float64 // float64(m.IssueWidth)
	invWidth   float64 // 1 / width
	thrBranch  float64 // p.BranchFrac
	thrLoad    float64 // p.BranchFrac + p.LoadFrac
	thrStore   float64 // p.BranchFrac + p.LoadFrac + p.StoreFrac
	restDenom  float64 // 1 - p.LocalFrac
	thrCold    float64 // p.SequentialFrac + (1-p.SequentialFrac)*coldFrac
	l1HitStall float64 // 0.15 + (1-p.ILP)*1.3
	aluStall   float64 // (1-p.ILP)*0.18
	ipageBytes uint64  // I-TLB page granularity (2 MiB under huge-page code)

	// Thresholds (rng.P) of the per-instruction Bernoulli draws, named for
	// the event each decides. Hit on one draws and decides exactly as Bool
	// on its probability.
	hitKernelEnter rng.Prob // enter a kernel episode
	hitKernelSeq   rng.Prob // 0.9: a kernel data access is sequential
	hitPrefetch    rng.Prob // m.PrefetchQuality: a next-line prefetch issues
	hitUselessI    rng.Prob // 0.06: an issued code prefetch is useless
	hitUselessD    rng.Prob // 0.08: an issued data prefetch is useless
	hitFollowBias  rng.Prob // p.BranchPredictability
	hitMispredict  rng.Prob // 1 - p.BranchPredictability
	hitMissColdBTB rng.Prob // the same, at least 0.18 (an untrained site)
	hitMicrocode   rng.Prob // p.MicrocodeFrac
	hitDivide      rng.Prob // p.DivFrac
	hitResidualPF  rng.Prob // a residual page fault
	hitJITChurn    rng.Prob // a new code path appears
	hitException   rng.Prob // p.ExceptionPKI / 1000
	hitContend     rng.Prob // p.ContentionPKI / 1000

	// Cached data-region layout: regionSpan() and per-core bases only
	// change when the no-compaction ablation grows survivorsReal, so the
	// per-access calls are replaced by fields refreshed at those points.
	span      int64
	coreBases []uint64
}

// Run executes the workload on the machine and returns counters, a
// Top-Down profile and (optionally) time samples. It returns heap
// configuration errors (OutOfMemory, server-GC reservation) unchanged so
// experiments can reproduce the paper's missing configurations. It is
// new(Runner).Run: a caller simulating many workloads in turn should keep
// a Runner instead.
func Run(p workload.Profile, m *machine.Config, opts Options) (*Result, error) {
	return new(Runner).Run(p, m, opts)
}

func (e *engine) coreCount() int {
	n := e.opts.Cores
	if n <= 0 {
		n = e.p.DefaultCores
	}
	if n < 1 {
		n = 1
	}
	return n
}

// setup builds the run's state on rn's structures, each reset to its new
// state, and records the prewarm.
func (e *engine) setup(rn *Runner) error {
	n := e.coreCount()

	// Software-stack friction (§V-D): on an immature platform the managed
	// stack emits sparser, larger code and allocates with more overhead.
	e.effFootprint = e.p.CodeFootprintBytes
	e.allocRate = e.p.AllocBytesPerKI / 1000
	if e.p.Managed && e.m.StackFriction > 1 {
		// Code-byte inflation is mild; the real sparsity comes from the
		// page-aligned layout (PageAlign below).
		scale := e.m.StackFriction
		if scale > 1.5 {
			scale = 1.5
		}
		e.effFootprint = int(float64(e.effFootprint) * scale)
		e.allocRate *= 1 + (e.m.StackFriction-1)/2
	}
	e.allocScale = e.opts.AllocScale
	if e.allocScale <= 0 {
		e.allocScale = 400
	}
	// Residual steady-state fault rate: fresh buffers/LOH pages, roughly
	// half a page per 2x page-size of allocation.
	e.hitResidualPF = rng.P(e.allocRate / pageBytes / 2)

	if e.p.Managed {
		e.log = &clr.EventLog{}
		tierUp := e.opts.TierUpCalls
		if tierUp == 0 {
			tierUp = 400
		}
		maxHeap := e.opts.MaxHeapBytes
		if maxHeap == 0 {
			maxHeap = 2000 << 20
		}
		// Code layout is a property of the binary + JIT version: identical
		// across measurement runs (SeedSalt must not perturb it, or
		// run-to-run variance would be inflated far beyond §III-A's <5%).
		r := rng.NewFrom(e.p.Seed(), rng.HashString(e.m.Name), 1)
		jit, err := clr.NewJIT(clr.JITConfig{
			MethodCount:        e.p.MethodCount,
			CodeBytes:          e.effFootprint,
			TierUpCalls:        tierUp,
			RelocationEnabled:  !e.opts.DisableRelocation,
			CompileCostPerByte: 3,
			PageAlign:          e.m.StackFriction > 2,
		}, e.log, r)
		if err != nil {
			return err
		}
		e.jit = jit
		pre := e.opts.PrecompiledFrac
		if pre == 0 {
			pre = 0.995
		}
		if pre > 0 {
			jit.Precompile(pre, r)
		}
		heap, err := clr.NewHeap(clr.HeapConfig{
			Mode:              e.opts.GCMode,
			MaxBytes:          maxHeap,
			Cores:             n,
			LiveSetBytes:      e.p.WorkingSetBytes,
			CompactionEnabled: !e.opts.DisableCompaction,
		}, e.log)
		if err != nil {
			return err
		}
		e.heap = heap
		jitChurn := 0.008 / 1000 // new code paths per instruction
		if e.p.Suite == workload.AspNet {
			jitChurn = 0.03 / 1000
		}
		// An immature runtime regenerates code more often (§V-D).
		if e.m.StackFriction > 1 {
			jitChurn *= 1 + (e.m.StackFriction-1)/2
		}
		e.hitJITChurn = rng.P(jitChurn)
	} else {
		// Static native code layout: methods laid out contiguously once,
		// identically across runs of the same binary.
		r := rng.NewFrom(e.p.Seed(), rng.HashString(e.m.Name), 2)
		rn.nativeAddrs = sized(rn.nativeAddrs, e.p.MethodCount)
		rn.nativeSizes = sized(rn.nativeSizes, e.p.MethodCount)
		e.nativeAddrs, e.nativeSizes = rn.nativeAddrs, rn.nativeSizes
		next := uint64(nativeCodeBase)
		mean := e.effFootprint / e.p.MethodCount
		if mean < 16 {
			mean = 16
		}
		for i := range e.nativeAddrs {
			size := mean/2 + r.Intn(mean)
			e.nativeAddrs[i] = next
			e.nativeSizes[i] = size
			next += uint64(size)
		}
	}

	e.kernelAddrs, e.kernelSizes = rn.kernelLayout()

	// Kernel episodes average ~140 instructions; solve the entry
	// probability that yields the profile's kernel share.
	const episodeLen = 140.0
	var pKernelEnter float64
	if e.p.KernelFrac > 0 && e.p.KernelFrac < 1 {
		pKernelEnter = e.p.KernelFrac / (1 - e.p.KernelFrac) / episodeLen
	}

	// DSB coverage shrinks as hot code outgrows the uop cache (~32 KiB of
	// hot code fits); big-footprint managed code decodes through MITE.
	e.dsbShare = 32.0 * 1024 / float64(e.effFootprint)
	if e.dsbShare > 0.85 {
		e.dsbShare = 0.85
	}
	if e.dsbShare < 0.10 {
		e.dsbShare = 0.10
	}

	// Cold-data tier: the share of random accesses that wander the whole
	// working set rather than the hot region. High DataZipf = tight
	// locality = almost no cold wandering.
	e.coldFrac = 0.35 - e.p.DataZipf*0.30
	if e.coldFrac < 0 {
		e.coldFrac = 0
	}

	ctrl, err := rn.controller()
	if err != nil {
		return err
	}
	e.mem = ctrl

	if n > 1 {
		e.sharedLLC = rn.sharedLLC()
		e.sharedLLC.UseHashedPlacement(e.opts.Assist.HashedSlicePlacement)
	}
	// Per-instruction invariants (see the engine struct comment): each is
	// exactly the expression the hot path used to evaluate inline.
	e.width = float64(e.m.IssueWidth)
	e.invWidth = 1 / e.width
	e.thrBranch = e.p.BranchFrac
	e.thrLoad = e.p.BranchFrac + e.p.LoadFrac
	e.thrStore = e.p.BranchFrac + e.p.LoadFrac + e.p.StoreFrac
	e.restDenom = 1 - e.p.LocalFrac
	e.thrCold = e.p.SequentialFrac + (1-e.p.SequentialFrac)*e.coldFrac
	e.l1HitStall = 0.15 + (1-e.p.ILP)*1.3
	e.aluStall = (1 - e.p.ILP) * 0.18
	e.ipageBytes = pageBytes
	if e.opts.Assist.HugePageCode && e.p.Managed {
		e.ipageBytes = 2 << 20
	}
	rn.coreBases = sized(rn.coreBases, n)
	e.coreBases = rn.coreBases
	e.refreshDataLayout()

	e.hitKernelEnter = rng.P(pKernelEnter)
	e.hitKernelSeq = rng.P(0.9)
	e.hitPrefetch = rng.P(e.m.PrefetchQuality)
	e.hitUselessI = rng.P(0.06)
	e.hitUselessD = rng.P(0.08)
	e.hitFollowBias = rng.P(e.p.BranchPredictability)
	pMiss := 1 - e.p.BranchPredictability
	e.hitMispredict = rng.P(pMiss)
	// A cold site's direction state is untrained too.
	if pMiss < 0.18 {
		pMiss = 0.18
	}
	e.hitMissColdBTB = rng.P(pMiss)
	e.hitMicrocode = rng.P(e.p.MicrocodeFrac)
	e.hitDivide = rng.P(e.p.DivFrac)
	e.hitException = rng.P(e.p.ExceptionPKI / 1000)
	e.hitContend = rng.P(e.p.ContentionPKI / 1000)

	// On an immature stack the JIT lacks hot-path tiering and profile-
	// guided layout, so execution spreads across far more code (§V-D).
	methodZipf := e.p.MethodZipf
	if e.p.Managed && e.m.StackFriction > 2 {
		methodZipf *= 0.45
	}
	rn.dzipf.Init(dataBuckets, e.p.DataZipf)
	rn.mzipf.Init(dataBuckets, methodZipf)
	e.dzipf, e.mzipf = &rn.dzipf, &rn.mzipf
	for i := 0; i < n; i++ {
		r := rng.NewFrom(e.p.Seed(), rng.HashString(e.m.Name), e.opts.SeedSalt, uint64(100+i))
		c := rn.core(i)
		*c = core{
			id:   i,
			r:    r,
			l1i:  c.l1i,
			l1d:  c.l1d,
			l2:   c.l2,
			tlbs: c.tlbs,
			bp:   c.bp,
		}
		if e.sharedLLC == nil {
			c.l3 = rn.privateLLC()
		}
		c.callIn = e.callGap(c)
		e.switchMethod(c)
		c.seqAddr = e.dataBase(c) + uint64(c.r.Intn(1<<16))
	}
	e.cores = rn.cores[:n]
	e.prewarm(rn)
	return nil
}

// callGap draws the instruction distance to the next method switch.
func (e *engine) callGap(c *core) int {
	gap := e.p.CallEveryInstr
	if gap < 8 {
		gap = 8
	}
	return gap/2 + c.r.Intn(gap)
}

// dataBase returns the base address of this core's slice of the data
// region. Each core works on its natural per-core share (per-request data
// for ASP.NET), so per-core locality is core-count independent while the
// total footprint grows with active cores — the §VI-B2 setup.
func (e *engine) dataBase(c *core) uint64 {
	return e.coreBases[c.id]
}

// refreshDataLayout recomputes the cached data-region span and per-core
// base addresses (setup sizes coreBases to the core count). Called once at
// setup and again whenever survivorsReal grows (the no-compaction
// ablation), the only event that moves them.
func (e *engine) refreshDataLayout() {
	e.span = e.regionSpan()
	base := uint64(nativeDataBase)
	if e.heap != nil {
		base = e.heap.Base()
	}
	for i := range e.coreBases {
		e.coreBases[i] = base + uint64(i)*uint64(e.span)
	}
}

// regionSpan returns the per-core data span. It is stable under normal
// operation (compaction recycles the nursery window, so live data stays
// put); only the no-compaction ablation grows it, modeling survivor
// scatter.
func (e *engine) regionSpan() int64 {
	region := e.p.WorkingSetBytes
	if e.heap != nil {
		region += int64(e.survivorsReal)
	}
	d := int64(e.p.DefaultCores)
	if d < 1 {
		d = 1
	}
	span := region / d
	if span < pageBytes {
		span = pageBytes
	}
	return span
}

// hotMethod picks a method with skewed popularity: real programs
// concentrate time in a hot subset but still touch a long tail, which is
// what gives large-footprint code its I-side misses. Popularity is Zipf
// over method groups (so every method stays reachable when the method
// count exceeds the bucket count), permuted so hot groups scatter across
// the code region.
func (e *engine) hotMethod(c *core, n int) int {
	b := e.mzipf.Next(c.r)
	group := (b*2654435761 + c.id*977) % n
	g := n / dataBuckets
	if g < 1 {
		return group
	}
	return (group + c.r.Intn(g)*dataBuckets) % n
}

// resetStats discards warmup measurements, keeping learned state warm.
func (e *engine) resetStats() {
	for _, c := range e.cores {
		c.c = Counters{}
		c.l1i.ResetStats()
		c.l1d.ResetStats()
		c.l2.ResetStats()
		if c.l3 != nil {
			c.l3.ResetStats()
		}
		c.tlbs.ResetStats()
		c.bp.ResetStats()
	}
	if e.sharedLLC != nil {
		e.sharedLLC.ResetWindow()
	}
	e.mem.ResetStats()
	if e.log != nil {
		e.log.Reset()
	}
	e.samples = e.samples[:0]
	e.prevSnapshot = Counters{}
}

// maybeSample records a counter-delta sample when the lead core's clock
// crosses the next sampling boundary.
func (e *engine) maybeSample() {
	lead := e.cores[0]
	if lead.c.Cycles < e.nextSample {
		return
	}
	e.nextSample += e.opts.SampleInterval

	var agg Counters
	for _, c := range e.cores {
		agg.Add(&c.c)
	}
	agg.fillEventTotals(e.log)
	prev := e.prevSnapshot
	s := Sample{
		CycleStart:   prev.Cycles,
		CycleEnd:     agg.Cycles,
		Instructions: agg.Instructions - prev.Instructions,
		Cycles:       agg.Cycles - prev.Cycles,
		BranchMisses: agg.BranchMisses - prev.BranchMisses,
		L1IMisses:    agg.L1IMisses - prev.L1IMisses,
		L2Misses:     agg.L2Misses - prev.L2Misses,
		LLCMisses:    agg.L3Misses - prev.L3Misses,
		PageFaults:   agg.PageFaults - prev.PageFaults,
		UselessPref:  agg.UselessPrefetches - prev.UselessPrefetches,
		JITStarts:    agg.JITStarts - prev.JITStarts,
		GCTriggered:  agg.GCTriggered - prev.GCTriggered,
	}
	e.samples = append(e.samples, s)
	e.prevSnapshot = agg
}

// finish merges per-core counters and produces the result.
func (e *engine) finish() (*Result, error) {
	var agg Counters
	for _, c := range e.cores {
		agg.Add(&c.c)
	}
	if e.sharedLLC != nil {
		// Shared-LLC accounting replaces the (empty) private L3 counters.
		agg.L3Accesses = e.sharedLLC.Stats.Accesses
		agg.L3Misses = e.sharedLLC.Stats.Misses
	}
	agg.fillEventTotals(e.log)
	agg.RowAccesses = e.mem.Stats.Accesses()
	agg.RowMisses = e.mem.Stats.RowMisses + e.mem.Stats.RowConflicts
	agg.ActiveCores = len(e.cores)
	agg.Slots.Total = agg.Cycles * float64(e.m.IssueWidth)
	perCoreCycles := agg.Cycles / float64(len(e.cores))
	agg.WallSeconds = perCoreCycles / (e.m.NomFreq * 1e9)
	return NewResult(e.p, e.m, agg, e.samples)
}

// NewResult assembles the result of running p on m from the run's merged
// counters and samples: the core count is the counters' ActiveCores and
// the Top-Down profile is derived from their slot ledger, which must be
// consistent. A finished run and a measurement-store read both build
// their results here, so a stored run reads back exactly as it ran. An
// empty sample list becomes nil, the form a store read decodes.
func NewResult(p workload.Profile, m *machine.Config, c Counters, samples []Sample) (*Result, error) {
	prof, err := topdown.NewProfile(&c.Slots)
	if err != nil {
		return nil, fmt.Errorf("sim: inconsistent slot ledger: %w", err)
	}
	if len(samples) == 0 {
		samples = nil
	}
	return &Result{
		Workload: p,
		Machine:  m,
		Cores:    c.ActiveCores,
		Counters: c,
		Profile:  prof,
		Samples:  samples,
	}, nil
}
