package sim

import (
	"math"

	"repro/internal/clr"
)

// managedStep runs the per-instruction managed-runtime machinery:
// allocation (with page faults and GC triggering), JIT churn, exceptions
// and lock contention.
func (e *engine) managedStep(c *core) {
	width := e.width
	cc := &c.c

	// Allocation: real bytes accumulate; the heap sees them time-
	// compressed by AllocScale so GC periods fit inside the window, while
	// address-space effects (the nursery bump pointer) stay at real scale.
	c.allocCarry += e.allocRate
	if c.allocCarry >= 64 {
		n := int64(c.allocCarry)
		c.allocCarry -= float64(n)
		// Touch the freshly allocated line: first use of a new nursery
		// window misses all the way down; a recycled (post-GC) window is
		// still cache-resident.
		addr := e.heap.Base() + uint64(e.p.WorkingSetBytes) + uint64(e.nurseryReal)
		e.nurseryReal += float64(n)
		cc.L1DAccesses++
		if !c.l1d.Access(addr) {
			cc.L1DMisses++
			cc.L2Accesses++
			if !c.l2.Access(addr) {
				cc.L2Misses++
				cc.L3Accesses++
				if hit, _ := e.l3Access(c, addr); !hit {
					cc.L3Misses++
					cc.DRAMWrites++
					stall := float64(e.mem.Access(addr, true)) / 4
					cc.Cycles += stall
					cc.Slots.BEDRAMBound += stall * width
				}
			}
		}
		if e.heap.Allocate(n*int64(e.allocScale), uint64(cc.Cycles)) {
			e.chargeGC(c)
		}
	}
	// Residual page faults: fresh buffers and heap growth.
	if c.r.Hit(e.hitResidualPF) {
		cc.PageFaults++
		handler := uint64(450)
		cc.Instructions += handler
		cc.KernelInstructions += handler
		cc.Slots.Retiring += float64(handler)
		stall := 1500.0
		cc.Cycles += float64(handler)/width + stall
		cc.Slots.BEDRAMBound += stall * width
	}

	// JIT churn: new code paths appear over time (tier-up is handled by
	// the JIT itself at call sites).
	if c.r.Hit(e.hitJITChurn) {
		e.jit.Invalidate(c.r.Intn(e.jit.MethodCount()))
		e.switchMethod(c)
	}

	if c.r.Hit(e.hitException) {
		e.log.Emit(clr.EvException, uint64(cc.Cycles))
		// Exception dispatch: microcoded unwinding plus a kernel episode.
		cc.Cycles += 120
		cc.Slots.FEMSSwitch += 120 * width
		c.kernelIn += 160
	}
	if c.r.Hit(e.hitContend) {
		e.log.Emit(clr.EvContention, uint64(cc.Cycles))
		cc.Cycles += 180
		cc.Slots.BEPortsUtil += 180 * width
		c.kernelIn += 120
	}
}

// chargeGC accounts one garbage collection on the triggering core: the
// collector's instructions retire, its heap walk pollutes the data caches,
// and the compaction benefit (smaller effective region) takes effect in
// the heap itself.
func (e *engine) chargeGC(c *core) {
	width := e.width
	cc := &c.c
	if e.opts.Assist.GCOffload {
		// Hardware GC engine (§VIII what-if): the heap walk and
		// compaction run concurrently in dedicated hardware. The
		// application pays only a short handshake, the data caches are
		// not polluted, and the compaction locality benefit is kept
		// (the heap has already recorded it).
		const handshake = 150
		cc.Instructions += handshake
		cc.Slots.Retiring += handshake
		cc.Cycles += handshake / width
		if e.opts.DisableCompaction {
			e.survivorsReal += e.nurseryReal / 10
			e.refreshDataLayout()
		}
		e.nurseryReal = 0
		return
	}
	// Time compression (AllocScale) multiplies the observed GC frequency;
	// the per-collection instruction cost shrinks accordingly so the
	// collector's share of the instruction stream stays realistic.
	cost := e.heap.GCInstructionCost()
	if e.allocScale > 1 {
		scaled := float64(cost) / math.Sqrt(e.allocScale)
		if scaled < 200 {
			scaled = 200
		}
		cost = uint64(scaled)
	}
	cc.Instructions += cost
	cc.Slots.Retiring += float64(cost)
	base := float64(cost) / width
	scanStall := 0.12 * float64(cost)
	cc.Cycles += base + scanStall
	cc.GCPauseCycles += base + scanStall
	cc.Slots.BEL3Bound += scanStall * 0.7 * width
	cc.Slots.BEDRAMBound += scanStall * 0.3 * width
	// Data movement traffic: survivors compacted. (The heap walk streams
	// through the caches with non-temporal behavior — modern collectors
	// avoid evicting the mutator's hot lines — so no flush is modeled.)
	moved := cost / 4
	cc.DRAMReads += moved / 8
	cc.DRAMWrites += moved / 16
	// Compaction recycles the nursery address window; without it the
	// survivors scatter and the effective region keeps growing.
	if e.opts.DisableCompaction {
		e.survivorsReal += e.nurseryReal / 10
		e.refreshDataLayout()
	}
	e.nurseryReal = 0
}

// switchMethod moves the core to a new method (simulating a call),
// handling JIT compilation for managed code.
func (e *engine) switchMethod(c *core) {
	var id int
	if e.jit != nil {
		id = e.hotMethod(c, e.jit.MethodCount())
		// Call returns the post-compilation address and size.
		addr, size, res := e.jit.Call(id, uint64(c.c.Cycles))
		if res.Compiled {
			e.chargeJITCompile(c, res)
			if e.opts.Assist.JITCodePrefetch {
				e.applyJITPrefetch(c, addr, size)
			}
			if res.Relocated && e.opts.Assist.PredictorTransform {
				e.applyPredictorTransform(c, res.OldAddr, addr, size)
			}
		}
		c.methodID = id
		c.pc = addr
		c.methodStart = addr
		c.methodEnd = addr + uint64(size)
	} else {
		id = e.hotMethod(c, len(e.nativeAddrs))
		c.methodID = id
		c.pc = e.nativeAddrs[id]
		c.methodStart = c.pc
		c.methodEnd = c.pc + uint64(e.nativeSizes[id])
	}
}

// chargeJITCompile accounts the cost of one JIT compilation: the compiler
// instructions execute (retiring), new code pages fault in, and the fresh
// address range is cold in every PC-indexed structure by construction.
func (e *engine) chargeJITCompile(c *core, res clr.CallResult) {
	width := e.width
	instr := res.CompileInstructions
	c.c.Instructions += instr
	c.c.JITCompileInstr += instr
	c.c.Slots.Retiring += float64(instr)
	base := float64(instr) / width
	c.c.Cycles += base

	// The compiler itself is a large, branchy program walking IR graphs:
	// its execution raises the miss counters the way §VII-A observes in
	// JIT-heavy sample bins.
	cBranches := instr * 18 / 100
	cBranchMisses := cBranches * 11 / 100 // cold IR-walk branches mispredict hard
	c.c.Branches += cBranches
	c.c.TakenBranches += cBranches / 2
	c.c.BranchMisses += cBranchMisses
	bmStall := float64(cBranchMisses) * 15
	c.c.Cycles += bmStall
	c.c.Slots.BadSpec += bmStall * 0.6 * width
	c.c.Slots.FEResteer += bmStall * 0.4 * width

	cIMisses := instr / 16 // the compiler's own code floods the I-cache
	c.c.L1IAccesses += instr / 16
	c.c.L1IMisses += cIMisses
	c.c.L2Accesses += cIMisses
	c.c.L2Misses += cIMisses / 3
	c.c.L3Accesses += cIMisses / 3
	c.c.L3Misses += cIMisses / 10
	c.c.DRAMReads += cIMisses / 10
	iStall := float64(cIMisses) * float64(e.m.L2Lat) * 0.45
	c.c.Cycles += iStall
	c.c.Slots.FEICache += iStall * width

	cDMisses := instr / 20 // IR graph walks over fresh allocations miss hard
	c.c.Loads += instr * 30 / 100
	c.c.Stores += instr * 12 / 100
	c.c.L1DAccesses += instr * 42 / 100
	c.c.L1DMisses += cDMisses
	c.c.L2Accesses += cDMisses
	c.c.L2Misses += cDMisses / 3
	c.c.L3Accesses += cDMisses / 3
	c.c.L3Misses += cDMisses / 12
	c.c.DRAMReads += cDMisses / 12
	dStall := float64(cDMisses) * float64(e.m.L2Lat) / 3
	c.c.Cycles += dStall
	c.c.Slots.BEL2Bound += dStall * width

	// On an immature platform, publishing fresh code performs a blunt
	// full TLB invalidation instead of targeted maintenance — the §V-D
	// software-stack gap that geometry alone cannot explain.
	if e.m.StackFriction > 2 {
		c.tlbs.Flush()
	}

	// Page faults for freshly mapped code pages.
	if res.NewPages > 0 {
		pages := uint64(res.NewPages)
		c.c.PageFaults += pages
		handler := pages * 600
		c.c.Instructions += handler
		c.c.KernelInstructions += handler
		c.c.Slots.Retiring += float64(handler)
		faultStall := float64(pages) * 2200
		c.c.Cycles += float64(handler)/width + faultStall
		c.c.Slots.BEDRAMBound += faultStall * width
	}
}
