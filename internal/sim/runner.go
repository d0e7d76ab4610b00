package sim

import (
	"slices"

	"repro/internal/branch"
	"repro/internal/clr"
	"repro/internal/dram"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Runner executes simulations one after another on one set of machine
// structures: each core's caches, TLBs and predictor, the private or
// shared LLC, the DRAM controller and the machine's kernel code layout,
// and for managed workloads the JIT's method table and the runtime event
// log. Every Run resets them in place instead of building new ones. A
// cache reset is O(1) (mem.Cache.Reset) and the prewarm is only recorded,
// each set replaying its share when first touched, so a run pays for the
// state it uses rather than for the size of the machine. Results are
// identical to Run's.
//
// The zero value is ready to use. A Runner is not safe for concurrent use;
// give each goroutine its own, and drop it with the batch of runs it
// serves, since it holds on to the largest machine state it has built.
type Runner struct {
	m      machine.Config        // the machine the structures model
	policy mem.ReplacementPolicy // their replacement policy

	cores  []*core        // per-core structures, grown on demand
	l3     *mem.Cache     // core 0's private LLC (single-core runs)
	shared *noc.SharedLLC // the sliced LLC (multi-core runs)
	dram   *dram.Controller
	// The kernel code layout: a property of the machine alone.
	kernelAddrs []uint64
	kernelSizes []int

	// Scratch that setup and prewarm rewrite on every run.
	jit          clr.JIT
	log          clr.EventLog
	dzipf, mzipf rng.Zipf
	nativeAddrs  []uint64
	nativeSizes  []int
	coreBases    []uint64
	llc, l2b     [][2]uint64
	tlb          []mem.TLBRange
}

// Run simulates p on m like the package-level Run, reusing the runner's
// structures when they model the same machine and replacement policy.
func (r *Runner) Run(p workload.Profile, m *machine.Config, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if r.m != *m || r.policy != opts.Policy {
		// Structures for another machine or policy do not fit: drop them.
		// (A zero Runner's machine never validates, so it never matches.)
		*r = Runner{m: *m, policy: opts.Policy}
	}
	e := &engine{p: p, m: m, opts: opts}
	sp := opts.Obs
	pspan := sp.Child("prewarm", "")
	err := e.setup(r)
	pspan.End()
	sp.Trace().Observe("sim.phase.prewarm", pspan.Duration())
	if err != nil {
		return nil, err
	}

	perCore := opts.Instructions
	if perCore == 0 {
		perCore = DefaultInstructions
	}
	rspan := sp.Child("run", "")
	if !opts.DisableWarmup {
		e.run(perCore / 4)
		e.resetStats()
	}
	e.nextSample = e.opts.SampleInterval
	e.run(perCore)
	rspan.End()
	sp.Trace().Observe("sim.phase.run", rspan.Duration())
	res, err := e.finish()
	if err != nil {
		return nil, err
	}
	sp.Trace().Add("sim.instructions", int64(res.Counters.Instructions))
	return res, nil
}

// core returns core i's private structures reset to their new state,
// building them on first use. Cores are requested in order from 0.
func (r *Runner) core(i int) *core {
	if i < len(r.cores) {
		c := r.cores[i]
		c.l1i.Reset()
		c.l1d.Reset()
		c.l2.Reset()
		c.tlbs.Reset()
		c.bp.Reset()
		return c
	}
	c := &core{
		l1i:  mem.NewCache("L1I", r.m.L1I, r.policy),
		l1d:  mem.NewCache("L1D", r.m.L1D, r.policy),
		l2:   mem.NewCache("L2", r.m.L2, r.policy),
		tlbs: mem.NewTLBSet(&r.m),
		bp:   branch.New(13, r.m.BTBEntries, 4),
	}
	r.cores = append(r.cores, c)
	return c
}

// privateLLC returns the single core's LLC, reset.
func (r *Runner) privateLLC() *mem.Cache {
	if r.l3 == nil {
		r.l3 = mem.NewCache("L3", r.m.L3, r.policy)
	} else {
		r.l3.Reset()
	}
	return r.l3
}

// sharedLLC returns the sliced LLC of multi-core runs, reset.
func (r *Runner) sharedLLC() *noc.SharedLLC {
	if r.shared == nil {
		r.shared = noc.New(&r.m, r.policy)
	} else {
		r.shared.Reset()
	}
	return r.shared
}

// controller returns the DRAM controller, reset.
func (r *Runner) controller() (*dram.Controller, error) {
	if r.dram == nil {
		ctrl, err := dram.New(dram.Default(r.m.DRAMLat))
		if err != nil {
			return nil, err
		}
		r.dram = ctrl
	} else {
		r.dram.Reset()
	}
	return r.dram, nil
}

// kernelLayout returns the kernel code layout shared by all workloads on
// the machine, computing it on first use.
func (r *Runner) kernelLayout() ([]uint64, []int) {
	if r.kernelAddrs == nil {
		kr := rng.NewFrom(rng.HashString("kernel"), rng.HashString(r.m.Name))
		r.kernelAddrs = make([]uint64, kernelMethods)
		r.kernelSizes = make([]int, kernelMethods)
		knext := uint64(kernelCodeBase)
		kmean := kernelCodeBytes / kernelMethods
		for i := range r.kernelAddrs {
			size := kmean/2 + kr.Intn(kmean)
			r.kernelAddrs[i] = knext
			r.kernelSizes[i] = size
			knext += uint64(size)
		}
	}
	return r.kernelAddrs, r.kernelSizes
}

// sized returns s resliced to length n, reallocating only when its
// capacity is short. The contents are the caller's to overwrite.
func sized[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
