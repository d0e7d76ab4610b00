package sim

import "repro/internal/mem"

// prewarm installs the steady-state-resident lines and translations into
// the memory hierarchy before measurement. The paper measures long-warm
// processes (15 repetitions with the first discarded; ASP.NET warmed until
// <5% variance); a short simulation window would otherwise spend itself
// on cold misses that real measurements amortized away long ago.
//
// Ranges are batched per cache and handed over with one InsertRanges call
// each; a core's TLB ranges go to its TLBSet as one batch too. Batching
// only reorders inserts across *distinct* caches and TLBs, which share no
// state; each structure still sees its ranges in original order. The
// range lists are rn's scratch.
//
// Every structure has just been reset, so a cache only records its batch
// and each set replays its share when the run first touches it, and a TLB
// writes only the entries that survive the batch. A structure touched
// before this pass takes the per-line (per-page) loop instead, with the
// same result: the JITCodePrefetch assist fills a core's L1I, L2 and
// I-TLB in setup's first switchMethod. Under HashedSlicePlacement the
// shared LLC inserts line by line, since hashing scatters a range's lines
// across slices.
func (e *engine) prewarm(rn *Runner) {
	llc := rn.llc[:0]
	addLLC := func(start, end uint64) {
		if end > start {
			llc = append(llc, [2]uint64{start, end})
		}
	}
	// Code regions: application + kernel code are LLC- and L2-resident.
	var codeStart, codeEnd uint64
	if e.jit != nil {
		codeStart, codeEnd = e.jit.CodeRegion()
	} else {
		codeStart = nativeCodeBase
		codeEnd = e.nativeAddrs[len(e.nativeAddrs)-1] + uint64(e.nativeSizes[len(e.nativeSizes)-1])
	}
	codeCap := uint64(e.m.L3.SizeBytes / 4)
	if codeEnd-codeStart > codeCap {
		codeEnd = codeStart + codeCap
	}
	addLLC(codeStart, codeEnd)
	kEnd := uint64(kernelCodeBase + kernelCodeBytes)
	if e.p.KernelFrac > 0.005 {
		addLLC(kernelCodeBase, kEnd)
	}
	l2b, tlb := rn.l2b[:0], rn.tlb[:0]
	for _, c := range e.cores {
		l2b, tlb = l2b[:0], tlb[:0]
		// L2: the start of the code region (hot methods live everywhere in
		// it, but LRU steady state keeps roughly this much resident).
		l2Cap := uint64(e.m.L2.SizeBytes / 2)
		end := codeEnd
		if end-codeStart > l2Cap {
			end = codeStart + l2Cap
		}
		l2b = append(l2b, [2]uint64{codeStart, end})
		// L1I: the hottest slice of code.
		l1iEnd := codeStart + 16*1024
		if l1iEnd > codeEnd {
			l1iEnd = codeEnd
		}
		c.l1i.InsertRange(codeStart, l1iEnd)
		// Stack frame: L1D-resident.
		sbase := uint64(stackBase) + uint64(c.id)<<20
		tlb = append(tlb, mem.TLBRange{Start: sbase, End: sbase + pageBytes})
		// Kernel data buffers: L2/LLC-resident.
		if e.p.KernelFrac > 0.005 {
			kbase := kernelDataBase + uint64(c.id)<<20
			l2b = append(l2b, [2]uint64{kbase, kbase + (1 << 16)})
			addLLC(kbase, kbase+(1<<16))
			tlb = append(tlb, mem.TLBRange{Start: kbase, End: kbase + (1 << 16)})
		}
		// Warm data region: LLC-resident, top slice L2/L1-resident.
		span := e.regionSpan()
		warm := span
		if warm > warmRegionCap {
			warm = warmRegionCap
		}
		base := e.dataBase(c)
		addLLC(base, base+uint64(warm))
		l2b = append(l2b, [2]uint64{base, base + uint64(warm)/4})
		c.l1d.InsertRanges([][2]uint64{
			{sbase, sbase + pageBytes},
			{base, base + 8*1024},
		})
		// Cold span: LLC-resident while it fits (cache-resident
		// microbenchmarks); large spans stay cold, as on hardware.
		if span <= int64(e.m.L3.SizeBytes)/int64(len(e.cores)) {
			addLLC(base+uint64(warm), base+uint64(span))
		}
		// Nursery window: in steady state the gen0 region's addresses are
		// recycled every collection cycle and stay cache-resident; only
		// growth beyond the recycled window is cold.
		if e.heap != nil {
			window := e.heap.Gen0Budget() / int64(e.allocScale)
			if window > 8<<20 {
				window = 8 << 20
			}
			nbase := e.heap.Base() + uint64(e.p.WorkingSetBytes)
			addLLC(nbase, nbase+uint64(window))
			if window <= int64(e.m.L2.SizeBytes)/2 {
				l2b = append(l2b, [2]uint64{nbase, nbase + uint64(window)})
			}
			tlb = append(tlb, mem.TLBRange{Start: nbase, End: nbase + uint64(window)})
		}
		c.l2.InsertRanges(l2b)
		// TLBs: code pages and warm data pages. A sparse page-aligned code
		// layout (immature JIT) has far more pages than the TLB hierarchy
		// holds, so there is no steady warm state to install.
		if !(e.p.Managed && e.m.StackFriction > 2) {
			tlb = append(tlb, mem.TLBRange{Start: codeStart, End: codeEnd, Code: true})
		}
		if e.p.KernelFrac > 0.005 {
			tlb = append(tlb, mem.TLBRange{Start: kernelCodeBase, End: kEnd, Code: true})
		}
		tlb = append(tlb, mem.TLBRange{Start: base, End: base + uint64(warm)})
		c.tlbs.WarmRanges(tlb)
	}
	// All LLC ranges in original global order, executed in one batch per
	// target cache (one shared LLC, or every core's private LLC).
	if e.sharedLLC != nil {
		e.sharedLLC.InsertRanges(llc)
	} else {
		for _, c := range e.cores {
			c.l3.InsertRanges(llc)
		}
	}
	rn.llc, rn.l2b, rn.tlb = llc, l2b, tlb
}
