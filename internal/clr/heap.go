package clr

import (
	"errors"
	"fmt"
)

// GCMode selects the collection strategy, matching §VII-B: workstation GC
// runs on the application thread and is tuned for client apps; server GC
// runs dedicated high-priority collector threads, is more aggressive and
// resource-intensive, and is designed for throughput-oriented datacenter
// apps.
type GCMode int

const (
	// Workstation GC: larger allocation budget between collections,
	// collections run inline on the app thread.
	Workstation GCMode = iota
	// Server GC: per-core heaps with smaller effective budgets; the paper
	// measured server GC triggering 6.18x more often than workstation in
	// its configurations, with a 0.59x LLC-MPKI reduction from the extra
	// compactions.
	Server
)

// String names the GC mode the way .NET documentation does.
func (m GCMode) String() string {
	if m == Server {
		return "server"
	}
	return "workstation"
}

// ErrOutOfMemory is returned when a workload's live set cannot fit in the
// configured maximum heap — reproducing the §VII-B note that
// System.Collections cannot run with workstation GC and a 200 MiB cap.
var ErrOutOfMemory = errors.New("clr: OutOfMemoryException: live set exceeds maximum heap size")

// ErrServerGCReserve is returned when server GC cannot reserve its minimum
// per-core heap segments within the configured cap — reproducing the
// §VII-B note that System.Text/Collections/Tests cannot start under server
// GC with a 200 MiB cap.
var ErrServerGCReserve = errors.New("clr: server GC requires a larger minimum memory reservation")

// HeapConfig parameterizes the managed heap.
type HeapConfig struct {
	Mode     GCMode
	MaxBytes int64 // maximum heap size (the paper sweeps 200MiB/2000MiB/20000MiB)
	Cores    int   // server GC reserves per-core segments

	// LiveSetBytes is the workload's steady-state live data (its real
	// working set); survivors of every collection.
	LiveSetBytes int64

	// CompactionEnabled can be turned off for the ablation bench that
	// isolates the locality benefit of heap compaction.
	CompactionEnabled bool
}

// serverSegmentBytes is the per-core segment reservation server GC makes
// up front (real server GC reserves large segments per logical core).
const serverSegmentBytes = 16 << 20 // 16 MiB

// allocationTickBytes matches the real CLR's ~100 KiB AllocationTick
// quantum.
const allocationTickBytes = 100 << 10

// Heap is the simulated generational heap. It tracks enough geometry to
// produce a realistic data-address stream: a compacted live region plus a
// growing nursery of fresh allocations whose spread degrades locality
// until a collection compacts it back (the mechanism behind the paper's
// finding that GC *improves* LLC behavior, §VII-A2).
type Heap struct {
	cfg HeapConfig

	base uint64 // heap base address

	// Fragmentation state: live data occupies [base, base+live);
	// allocations since the last GC occupy [base+live, base+live+nursery).
	live    int64
	nursery int64

	// gen0Budget is the allocation amount that triggers a collection.
	gen0Budget int64

	// Counters.
	sinceTick       int64
	Collections     uint64
	Gen0Collections uint64
	Gen2Collections uint64
	BytesMoved      int64

	log *EventLog
}

// NewHeap validates the configuration and builds a heap. The returned
// error reproduces the paper's two startup failure modes.
func NewHeap(cfg HeapConfig, log *EventLog) (*Heap, error) {
	if cfg.MaxBytes <= 0 {
		return nil, fmt.Errorf("clr: non-positive max heap %d", cfg.MaxBytes)
	}
	if cfg.LiveSetBytes < 0 {
		return nil, fmt.Errorf("clr: negative live set %d", cfg.LiveSetBytes)
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 1
	}
	// Workstation OOM: the live set plus minimal nursery headroom must fit.
	if cfg.LiveSetBytes+cfg.LiveSetBytes/4 > cfg.MaxBytes {
		return nil, ErrOutOfMemory
	}
	if cfg.Mode == Server {
		// Server GC reserves per-core segments; with many cores and a
		// small cap the reservation fails for allocation-heavy workloads.
		reserve := int64(cfg.Cores) * serverSegmentBytes
		if reserve > cfg.MaxBytes && cfg.LiveSetBytes > cfg.MaxBytes/8 {
			return nil, ErrServerGCReserve
		}
	}
	h := &Heap{
		cfg:  cfg,
		base: 0x0000_7f00_0000_0000, // canonical user-space heap base
		live: cfg.LiveSetBytes,
		log:  log,
	}
	h.gen0Budget = h.computeBudget()
	return h, nil
}

// computeBudget derives the gen0 allocation budget from mode and heap cap.
// Server GC uses a much smaller effective budget (more frequent, more
// aggressive collections — the paper's 6.18x trigger ratio); both modes
// scale the budget with the cap, so a 20000 MiB cap collects far less
// often than a 200 MiB cap.
func (h *Heap) computeBudget() int64 {
	budget := h.cfg.MaxBytes / 16
	if h.cfg.Mode == Server {
		budget = h.cfg.MaxBytes / 100
	}
	const minBudget = 256 << 10 // 256 KiB floor
	if budget < minBudget {
		budget = minBudget
	}
	return budget
}

// Gen0Budget exposes the collection trigger threshold (for tests).
func (h *Heap) Gen0Budget() int64 { return h.gen0Budget }

// EffectiveRegion returns the current span of addresses data accesses
// touch: the compacted live region plus the un-collected nursery. The data
// address generator spreads accesses over this region, so a larger value
// means worse locality.
func (h *Heap) EffectiveRegion() int64 {
	r := h.live + h.nursery
	if r < 1 {
		r = 1
	}
	return r
}

// Base returns the heap base address.
func (h *Heap) Base() uint64 { return h.base }

// Allocate simulates allocating n bytes at the given cycle. It returns
// true when the allocation triggered a garbage collection (the caller
// charges GC instruction overhead and perturbs the instruction stream).
func (h *Heap) Allocate(n int64, cycle uint64) (gcTriggered bool) {
	if n <= 0 {
		return false
	}
	h.nursery += n
	h.sinceTick += n
	for h.sinceTick >= allocationTickBytes {
		h.sinceTick -= allocationTickBytes
		if h.log != nil {
			h.log.Emit(EvAllocationTick, cycle)
		}
	}
	if h.nursery >= h.gen0Budget {
		h.collect(cycle)
		return true
	}
	return false
}

// collect runs one garbage collection: survivors are compacted back into
// the live region, the nursery empties, and occasional full (gen2)
// collections recompact everything.
func (h *Heap) collect(cycle uint64) {
	h.Collections++
	if h.log != nil {
		h.log.Emit(EvGCTriggered, cycle)
	}
	// Every 8th collection promotes enough to warrant a full collection.
	full := h.Collections%8 == 0
	if full {
		h.Gen2Collections++
	} else {
		h.Gen0Collections++
	}
	// Survival: a slice of the nursery is still live (short-lived objects
	// dominate, so survival is low); survivors join the live region.
	survivors := h.nursery / 10
	h.BytesMoved += survivors
	if h.cfg.CompactionEnabled {
		// Compaction squeezes the live region back to the true live set,
		// restoring locality.
		h.live = h.cfg.LiveSetBytes
		if full {
			h.BytesMoved += h.live
		}
	} else {
		// Without compaction survivors scatter: live region grows and
		// locality decays (ablation mode).
		h.live += survivors
		if h.live > h.cfg.MaxBytes {
			h.live = h.cfg.MaxBytes
		}
	}
	h.nursery = 0
}

// GCInstructionCost returns the instruction-count overhead of one
// collection, proportional to the data it moves. Server GC's parallel
// collector threads add coordination overhead per collection but finish
// faster in wall-clock; the paper's instruction-footprint increase under
// GC is reproduced through this cost.
func (h *Heap) GCInstructionCost() uint64 {
	perLine := 0.005 // instructions per 64-byte line examined/moved
	base := 8_000.0
	if h.cfg.Mode == Server {
		base = 14_000.0 // thread coordination, per-core heap walks
	}
	return uint64(base + perLine*float64(h.cfg.LiveSetBytes/64))
}
