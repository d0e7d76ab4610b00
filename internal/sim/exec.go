package sim

// run interleaves perCore instructions across all cores round-robin.
// The loop is the innermost driver of every measurement; the sampling
// check and the core-selection modulo are hoisted out of the
// per-instruction path (the visit order is identical to the historical
// `cores[i%n]` round-robin).
func (e *engine) run(perCore uint64) {
	if e.opts.SampleInterval > 0 {
		for i := uint64(0); i < perCore; i++ {
			for _, c := range e.cores {
				e.step(c)
				if c.id == 0 {
					e.maybeSample()
				}
			}
		}
		return
	}
	if len(e.cores) == 1 {
		c := e.cores[0]
		for i := uint64(0); i < perCore; i++ {
			e.step(c)
		}
		return
	}
	for i := uint64(0); i < perCore; i++ {
		for _, c := range e.cores {
			e.step(c)
		}
	}
}

// step executes one application instruction on core c.
func (e *engine) step(c *core) {
	cc := &c.c
	cc.Instructions++
	cc.Slots.Retiring++
	cc.Cycles += e.invWidth

	inKernel := c.kernelIn > 0
	if inKernel {
		cc.KernelInstructions++
		c.kernelIn--
	} else if c.r.Hit(e.hitKernelEnter) {
		c.kernelIn = 70 + c.r.Intn(140)
		// Hot syscall paths dominate (read/write/epoll for the network
		// stack), with a long tail of colder entry points.
		c.kernelMeth = (e.mzipf.Next(c.r) * 2246822519) % kernelMethods
		c.kernelPC = e.kernelAddrs[c.kernelMeth]
		c.kernelEnd = c.kernelPC + uint64(e.kernelSizes[c.kernelMeth])
	}

	// --- Instruction fetch ---
	pc := e.advancePC(c, inKernel)
	line := pc / lineBytes
	if line != c.lastILine {
		c.lastILine = line
		e.ifetch(c, pc)
	}

	// --- Frontend bandwidth shortfall (decode) ---
	e.chargeFEBW(c, 0.030)

	// --- Instruction kind: fixed per static instruction so branch sites
	// and load sites are stable, as in real code. ---
	kind := pcHash(pc)
	switch {
	case kind < e.thrBranch:
		e.execBranch(c, pc)
	case kind < e.thrLoad:
		e.execLoad(c, inKernel)
	case kind < e.thrStore:
		e.execStore(c, inKernel)
	default:
		e.execALU(c)
	}

	// --- Managed runtime activity ---
	if e.p.Managed && !inKernel {
		e.managedStep(c)
	}

	// --- Method switches ---
	if !inKernel {
		c.callIn--
		if c.callIn <= 0 {
			c.callIn = e.callGap(c)
			e.switchMethod(c)
		}
	}
}

// advancePC walks the current code region and returns the fetch PC.
func (e *engine) advancePC(c *core, inKernel bool) uint64 {
	if inKernel {
		c.kernelPC += 4
		if c.kernelPC >= c.kernelEnd {
			c.kernelPC = e.kernelAddrs[c.kernelMeth]
		}
		return c.kernelPC
	}
	c.pc += 4
	if c.pc >= c.methodEnd {
		// Loop within the tail of the method until the next call.
		back := uint64(256)
		if span := c.methodEnd - c.methodStart; span < back {
			back = span
		}
		c.pc = c.methodEnd - back
	}
	return c.pc
}

// ifetch performs the instruction-side cache/TLB walk and charges
// frontend-latency stalls.
func (e *engine) ifetch(c *core, pc uint64) {
	width := e.width
	cc := &c.c

	// With huge-page code mapping, the I-TLB sees 2 MiB pages: lookups
	// (and misses) happen at 2 MiB granularity.
	page := pc / e.ipageBytes
	if page != c.lastIPage {
		c.lastIPage = page
		walksBefore := c.tlbs.ITLB.Stats.Misses
		if !c.tlbs.ITLB.Lookup(page * pageBytes) {
			// First level missed; walk-causing misses get walk latency,
			// STLB hits a small refill penalty. On an immature managed
			// stack the STLB holds no steady state (constant code
			// publication invalidates it), so every first-level miss
			// walks.
			frictionWalk := e.p.Managed && e.m.StackFriction > 2
			if frictionWalk || c.tlbs.ITLB.Stats.Misses > walksBefore {
				cc.ITLBMisses++
				stall := 30.0 * (1 + (e.m.StackFriction-1)*0.2)
				cc.Cycles += stall
				cc.Slots.FEITLB += stall * width
			} else {
				cc.Cycles += 8
				cc.Slots.FEITLB += 8 * width
			}
		}
	}

	cc.L1IAccesses++
	if c.l1i.Access(pc) {
		return
	}
	cc.L1IMisses++
	cc.L2Accesses++
	// Frontend-latency misses overlap heavily with backend stalls on an
	// out-of-order core with deep fetch queues — the paper notes most
	// I-cache stall cycles are hidden (§VI-B1) — so only a fraction of the
	// fill latency becomes visible stall, and the deeper the fill source
	// the more of it hides behind other in-flight work.
	var stall float64
	if c.l2.Access(pc) {
		stall = float64(e.m.L2Lat) * 0.45
	} else {
		cc.L2Misses++
		hit, lat := e.l3Access(c, pc)
		cc.L3Accesses++
		if hit {
			stall = float64(lat) * 0.22
		} else {
			cc.L3Misses++
			cc.DRAMReads++
			stall = float64(e.mem.Access(pc, false)) * 0.25
		}
		// Code-stream prefetch into L2: fetch runs sequentially within a
		// method, so the L2 prefetcher covers the following lines (within
		// the page).
		for _, nxt := range []uint64{pc + lineBytes, pc + 2*lineBytes} {
			if nxt/pageBytes == pc/pageBytes {
				c.l2.Insert(nxt)
			}
		}
	}
	cc.Cycles += stall
	cc.Slots.FEICache += stall * width

	// Next-line code prefetch, stopping at page boundaries — the §VII-A1
	// observation that JITed pages are prefetchable but prefetchers do not
	// cross into fresh pages.
	next := pc + lineBytes
	if next/pageBytes == pc/pageBytes && c.r.Hit(e.hitPrefetch) {
		c.l1i.Insert(next)
		cc.UsefulPrefetches++
		if c.r.Hit(e.hitUselessI) {
			cc.UselessPrefetches++
		}
	}
}

// l3Access goes to the private or shared LLC and returns (hit, latency).
func (e *engine) l3Access(c *core, addr uint64) (bool, int) {
	if e.sharedLLC != nil {
		return e.sharedLLC.Access(c.id, addr, len(e.cores))
	}
	if c.l3.Access(addr) {
		return true, e.m.L3Lat
	}
	return false, e.m.L3Lat
}

// chargeFEBW charges a frontend bandwidth shortfall split across DSB/MITE
// according to how much of the hot code the uop cache covers.
func (e *engine) chargeFEBW(c *core, cycles float64) {
	width := e.width
	cc := &c.c
	cc.Cycles += cycles
	cc.Slots.FEDSB += cycles * e.dsbShare * width
	cc.Slots.FEMITE += cycles * (1 - e.dsbShare) * width
}

// execBranch resolves one conditional branch. Direction accuracy follows
// the profile's predictability for warm branch sites; sites whose PC is
// cold in the BTB (fresh JIT code, first visits) mispredict far more —
// the §VII-A1 cold-start mechanism.
func (e *engine) execBranch(c *core, pc uint64) {
	width := e.width
	cc := &c.c
	cc.Branches++

	// Per-site bias is fixed (hashed from the PC); dynamic outcomes follow
	// the bias with the profile's predictability.
	bias := pcHash(pc^0xabcdef1234567) < e.p.TakenFrac
	outcome := bias
	if !c.r.Hit(e.hitFollowBias) {
		outcome = !outcome
	}
	_, btbHit := c.bp.Predict(pc, outcome)

	miss := e.hitMispredict
	if outcome && !btbHit {
		cc.BTBMisses++
		miss = e.hitMissColdBTB
	}
	if c.r.Hit(miss) {
		cc.BranchMisses++
		// 15-cycle flush: wrong-path slots are bad speculation, the
		// refetch latency is a frontend re-steer.
		cc.Cycles += 15
		cc.Slots.BadSpec += 9 * width
		cc.Slots.FEResteer += 6 * width
	} else if outcome && !btbHit {
		// Re-steer after the target resolves; partially hidden by the
		// out-of-order window.
		cc.Cycles += 1.5
		cc.Slots.FEResteer += 1.5 * width
	}
	if outcome {
		cc.TakenBranches++
		// Taken-branch packet break: fetch bandwidth loss.
		e.chargeFEBW(c, 0.30)
	}
}

// dataAddress produces the next data address for a load or store, drawn
// from a four-tier locality mixture:
//
//	local      — a hot stack frame (L1-resident)
//	sequential — streaming over the core's data span (prefetchable)
//	cold       — uniform over the whole span (DRAM when the span is big)
//	warm       — Zipf over a hot region capped at warmRegionCap
func (e *engine) dataAddress(c *core, inKernel bool) (addr uint64, sequential bool) {
	if inKernel {
		// Kernel buffers: hot, mostly sequential copies (network stack
		// skbs and socket buffers cycle through a small region).
		kbase := kernelDataBase + uint64(c.id)<<20
		if c.r.Hit(e.hitKernelSeq) {
			c.seqAddr += 8
			return kbase + (c.seqAddr & 0xffff), true
		}
		return kbase + uint64(c.r.Intn(1<<16)), false
	}
	roll := c.r.Float64()
	if roll < e.p.LocalFrac {
		// Stack/temporal-reuse accesses: a hot 4 KiB frame.
		return stackBase + uint64(c.id)<<20 + uint64(c.r.Intn(pageBytes)), false
	}
	span := e.span
	base := e.coreBases[c.id]
	rest := (roll - e.p.LocalFrac) / e.restDenom
	if rest < e.p.SequentialFrac {
		c.seqAddr += 8
		if c.seqAddr < base || c.seqAddr >= base+uint64(span) {
			c.seqAddr = base + uint64(c.r.Intn(int(span/2)+1))
		}
		return c.seqAddr, true
	}
	if rest < e.thrCold {
		// Cold wander over the whole span.
		return base + uint64(c.r.Intn(int(span))), false
	}
	// Warm tier: Zipf over a hot region.
	warm := span
	if warm > warmRegionCap {
		warm = warmRegionCap
	}
	bucketSize := warm / dataBuckets
	if bucketSize < lineBytes {
		bucketSize = lineBytes
	}
	bucket := e.dzipf.Next(c.r)
	off := uint64(bucket)*uint64(bucketSize) + uint64(c.r.Intn(int(bucketSize)))
	if off >= uint64(span) {
		off = uint64(span) - 1
	}
	return base + off, false
}

// execLoad performs one load.
func (e *engine) execLoad(c *core, inKernel bool) {
	width := e.width
	cc := &c.c
	cc.Loads++
	addr, sequential := e.dataAddress(c, inKernel)

	walksBefore := c.tlbs.DTLB.Stats.Misses
	if !c.tlbs.DTLB.Lookup(addr) {
		if c.tlbs.DTLB.Stats.Misses > walksBefore {
			cc.DTLBLoadMisses++
			stall := 25.0
			cc.Cycles += stall
			cc.Slots.BEL1Bound += stall * width
		} else {
			cc.Cycles += 7
			cc.Slots.BEL1Bound += 7 * width
		}
	}

	cc.L1DAccesses++
	if c.l1d.Access(addr) {
		// L1 hits still consume D-cache bandwidth and latency; load-dense,
		// low-ILP code cannot hide the ~4-cycle L1 latency and accumulates
		// visible L1-bound stalls (the ASP.NET D-cache observation in
		// §VI-B2).
		stall := e.l1HitStall
		cc.Cycles += stall
		cc.Slots.BEL1Bound += stall * width
	} else {
		cc.L1DMisses++
		cc.L2Accesses++
		var stall float64
		if c.l2.Access(addr) {
			stall = float64(e.m.L2Lat) / 3
			cc.Slots.BEL2Bound += stall * width
		} else {
			cc.L2Misses++
			cc.L3Accesses++
			hit, lat := e.l3Access(c, addr)
			if hit {
				stall = float64(lat) / 2
				cc.Slots.BEL3Bound += stall * width
			} else {
				cc.L3Misses++
				cc.DRAMReads++
				stall = float64(e.mem.Access(addr, false)) / 3
				cc.Slots.BEDRAMBound += stall * width
			}
		}
		cc.Cycles += stall
	}

	// Hardware prefetch on sequential streams, stopping at page edges.
	if sequential {
		next := addr + lineBytes
		if next/pageBytes == addr/pageBytes && c.r.Hit(e.hitPrefetch) {
			c.l1d.Insert(next)
			c.l2.Insert(next)
			cc.UsefulPrefetches++
			if c.r.Hit(e.hitUselessD) {
				cc.UselessPrefetches++
			}
		}
	}
}

// execStore performs one store.
func (e *engine) execStore(c *core, inKernel bool) {
	width := e.width
	cc := &c.c
	cc.Stores++
	addr, _ := e.dataAddress(c, inKernel)

	walksBefore := c.tlbs.DTLB.Stats.Misses
	if !c.tlbs.DTLB.Lookup(addr) {
		if c.tlbs.DTLB.Stats.Misses > walksBefore {
			cc.DTLBStoreMisses++
			stall := 25.0
			cc.Cycles += stall
			cc.Slots.BEStores += stall * width
		} else {
			cc.Cycles += 5
			cc.Slots.BEStores += 5 * width
		}
	}

	cc.L1DAccesses++
	if !c.l1d.Access(addr) {
		cc.L1DMisses++
		cc.L2Accesses++
		if !c.l2.Access(addr) {
			cc.L2Misses++
			cc.L3Accesses++
			hit, _ := e.l3Access(c, addr)
			if !hit {
				cc.L3Misses++
				cc.DRAMWrites++
				e.mem.Access(addr, true)
			}
		}
		// Store misses fill asynchronously; small backend charge.
		cc.Cycles += 1.0
		cc.Slots.BEStores += 1.0 * width
	}
	c.storeStreak++
	if c.storeStreak >= 10 {
		// Store-buffer pressure on bursts.
		c.storeStreak = 0
		cc.Cycles += 2
		cc.Slots.BEStores += 2 * width
	}
}

// execALU performs a non-memory, non-branch instruction.
func (e *engine) execALU(c *core) {
	width := e.width
	cc := &c.c
	if c.r.Hit(e.hitMicrocode) {
		// Microcode sequencer switch.
		cc.Cycles += 2.5
		cc.Slots.FEMSSwitch += 2.5 * width
	}
	if c.r.Hit(e.hitDivide) {
		cc.Cycles += 8
		cc.Slots.BEDivider += 8 * width
	}
	// Intrinsic ILP limits: empty issue ports.
	stall := e.aluStall
	cc.Cycles += stall
	cc.Slots.BEPortsUtil += stall * width
}
