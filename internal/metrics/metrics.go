// Package metrics defines the 24 characterization metrics of the paper's
// Table I: instruction-mix percentages, microarchitecture event rates
// (CPI, MPKI values, bandwidths), and managed-runtime event rates (GC, JIT,
// exceptions, contention). Every workload measurement in this repository is
// normalized into a metrics.Vector, the common currency consumed by PCA,
// clustering, subsetting and all comparison figures.
package metrics

import "fmt"

// ID identifies one of the 24 Table I metrics. The numeric values match
// the "ID" column of Table I exactly so the loading-factor tables and the
// control-flow/memory metric groups (§V-C: "Metrics 2, 7" and
// "Metrics 8-14") can be written in the paper's own terms.
type ID int

// Table I metric identifiers.
const (
	KernelInstructions ID = 0  // % of instructions executed in kernel mode
	UserInstructions   ID = 1  // % of instructions executed in user mode
	BranchInstructions ID = 2  // % branch instructions
	MemoryLoads        ID = 3  // % memory load instructions
	MemoryStores       ID = 4  // % memory store instructions
	CPI                ID = 5  // cycles per instruction
	CPUUsage           ID = 6  // % CPU utilization
	BranchMPKI         ID = 7  // branch misses per kilo-instruction
	L1DMPKI            ID = 8  // L1 D-cache misses PKI
	L1IMPKI            ID = 9  // L1 I-cache misses PKI
	L2MPKI             ID = 10 // L2 cache misses PKI
	LLCMPKI            ID = 11 // last-level-cache misses PKI
	ITLBMPKI           ID = 12 // I-TLB misses PKI
	DTLBLoadMPKI       ID = 13 // D-TLB load misses PKI
	DTLBStoreMPKI      ID = 14 // D-TLB store misses PKI
	MemReadBW          ID = 15 // memory read bandwidth, MB/s
	MemWriteBW         ID = 16 // memory write bandwidth, MB/s
	MemPageMissRate    ID = 17 // DRAM page (row-buffer) miss rate, %
	PageFaultsPKI      ID = 18 // OS page faults PKI
	GCTriggeredPKI     ID = 19 // GC/Triggered events PKI
	GCAllocTickPKI     ID = 20 // GC/AllocationTick events PKI
	JITStartedPKI      ID = 21 // JIT Method/JittingStarted events PKI
	ExceptionPKI       ID = 22 // Exception/Start events PKI
	ContentionPKI      ID = 23 // Contention/Start events PKI
)

// Count is the number of Table I metrics.
const Count = 24

// Vector is a complete 24-metric characterization of one workload run.
type Vector [Count]float64

// names indexed by ID, matching Table I terminology.
var names = [Count]string{
	"inst_mix_kernel-instructions",
	"inst_mix_user-instructions",
	"inst_mix_branch-instructions",
	"inst_mix_mem-loads",
	"inst_mix_mem-stores",
	"CPI",
	"cpu_usage",
	"branch MPKI",
	"L1-dcache MPKI",
	"L1-icache MPKI",
	"L2 MPKI",
	"LLC MPKI",
	"I-TLB MPKI",
	"D-TLB load-MPKI",
	"D-TLB store-MPKI",
	"memory_bandwidth_read",
	"memory_bandwidth_write",
	"memory_page_miss_rate",
	"page_faults",
	"gc/triggered",
	"gc/allocation_tick",
	"jit/jitting_started",
	"exception/start",
	"contention/start",
}

// units indexed by ID, matching Table I's normalization units.
var units = [Count]string{
	"%", "%", "%", "%", "%",
	"cycles/inst", "%",
	"MPKI", "MPKI", "MPKI", "MPKI", "MPKI",
	"MPKI", "MPKI", "MPKI",
	"MB/s", "MB/s", "%", "PKI",
	"PKI", "PKI", "PKI", "PKI", "PKI",
}

// categories indexed by ID, matching Table I's "Categories" column.
var categories = [Count]string{
	"Inst Mix", "Inst Mix", "Inst Mix", "Inst Mix", "Inst Mix",
	"CPI", "CPU Usage",
	"Branch",
	"Cache", "Cache", "Cache", "Cache",
	"TLB", "TLB", "TLB",
	"Memory", "Memory", "Memory", "Memory",
	"Garbage Collection", "Garbage Collection",
	"JIT", "Exception", "Contention",
}

// Name returns the Table I metric name for id.
func (id ID) Name() string {
	if id < 0 || id >= Count {
		return fmt.Sprintf("metric(%d)", int(id))
	}
	return names[id]
}

// Unit returns the normalization unit for id.
func (id ID) Unit() string {
	if id < 0 || id >= Count {
		return "?"
	}
	return units[id]
}

// Category returns the Table I category for id.
func (id ID) Category() string {
	if id < 0 || id >= Count {
		return "?"
	}
	return categories[id]
}

// Names returns all 24 metric names in ID order.
func Names() []string {
	out := make([]string, Count)
	for i := range names {
		out[i] = names[i]
	}
	return out
}

// All returns all metric IDs in order.
func All() []ID {
	out := make([]ID, Count)
	for i := range out {
		out[i] = ID(i)
	}
	return out
}

// ControlFlowIDs are the metrics the paper groups as control-flow behavior
// (§V-C: Metrics 2 and 7 — branch instruction share and branch MPKI).
func ControlFlowIDs() []ID { return []ID{BranchInstructions, BranchMPKI} }

// MemoryIDs are the metrics the paper groups as memory behavior
// (§V-C: Metrics 8-14 — cache and TLB MPKIs).
func MemoryIDs() []ID {
	return []ID{L1DMPKI, L1IMPKI, L2MPKI, LLCMPKI, ITLBMPKI, DTLBLoadMPKI, DTLBStoreMPKI}
}

// RuntimeIDs are the managed-runtime metrics (§V-D: Metrics 19-23).
func RuntimeIDs() []ID {
	return []ID{GCTriggeredPKI, GCAllocTickPKI, JITStartedPKI, ExceptionPKI, ContentionPKI}
}

// Slice returns the vector as a []float64 copy, the shape the stats/pca
// packages consume.
func (v Vector) Slice() []float64 {
	out := make([]float64, Count)
	copy(out, v[:])
	return out
}

// Select extracts the given metrics into a compact feature vector.
func (v Vector) Select(ids []ID) []float64 {
	out := make([]float64, len(ids))
	for i, id := range ids {
		out[i] = v[id]
	}
	return out
}

// Matrix converts a set of vectors into a row-major observation matrix.
func Matrix(vs []Vector) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Slice()
	}
	return out
}

// SelectMatrix extracts the given metric columns from a set of vectors.
func SelectMatrix(vs []Vector, ids []ID) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = v.Select(ids)
	}
	return out
}

// Validate reports an error if the vector contains values that are
// impossible under Table I's normalization (negative rates, percentage
// metrics outside [0, 100]).
func (v Vector) Validate() error {
	for i, x := range v {
		id := ID(i)
		if x < 0 {
			return fmt.Errorf("metrics: %s = %v is negative", id.Name(), x)
		}
		switch id {
		case KernelInstructions, UserInstructions, BranchInstructions,
			MemoryLoads, MemoryStores, CPUUsage, MemPageMissRate:
			if x > 100 {
				return fmt.Errorf("metrics: %s = %v exceeds 100%%", id.Name(), x)
			}
		}
	}
	if sum := v[KernelInstructions] + v[UserInstructions]; sum > 0 && (sum < 99.0 || sum > 101.0) {
		return fmt.Errorf("metrics: kernel+user share = %v%%, want ~100%%", sum)
	}
	return nil
}
