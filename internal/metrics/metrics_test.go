package metrics

import (
	"strings"
	"testing"
)

func TestCount(t *testing.T) {
	if Count != 24 {
		t.Fatalf("Table I has 24 metrics, Count = %d", Count)
	}
	if len(Names()) != 24 || len(All()) != 24 {
		t.Fatal("Names/All length mismatch")
	}
}

func TestIDValuesMatchTableI(t *testing.T) {
	// Spot-check the paper's ID column.
	cases := map[ID]int{
		KernelInstructions: 0,
		BranchInstructions: 2,
		CPI:                5,
		BranchMPKI:         7,
		L1DMPKI:            8,
		LLCMPKI:            11,
		ITLBMPKI:           12,
		DTLBStoreMPKI:      14,
		PageFaultsPKI:      18,
		GCTriggeredPKI:     19,
		JITStartedPKI:      21,
		ContentionPKI:      23,
	}
	for id, want := range cases {
		if int(id) != want {
			t.Fatalf("%s has ID %d, want %d", id.Name(), int(id), want)
		}
	}
}

func TestNamesUnitsCategories(t *testing.T) {
	if BranchMPKI.Unit() != "MPKI" {
		t.Fatalf("BranchMPKI unit = %q", BranchMPKI.Unit())
	}
	if CPUUsage.Unit() != "%" {
		t.Fatalf("CPUUsage unit = %q", CPUUsage.Unit())
	}
	if GCTriggeredPKI.Category() != "Garbage Collection" {
		t.Fatalf("GC category = %q", GCTriggeredPKI.Category())
	}
	if !strings.Contains(L2MPKI.Name(), "L2") {
		t.Fatalf("L2 name = %q", L2MPKI.Name())
	}
	// Out-of-range IDs degrade gracefully.
	if ID(99).Unit() != "?" || ID(-1).Category() != "?" {
		t.Fatal("out-of-range ID handling")
	}
	if !strings.Contains(ID(99).Name(), "99") {
		t.Fatal("out-of-range name should embed the value")
	}
}

func TestGroups(t *testing.T) {
	cf := ControlFlowIDs()
	if len(cf) != 2 || cf[0] != BranchInstructions || cf[1] != BranchMPKI {
		t.Fatalf("ControlFlowIDs = %v (paper: metrics 2, 7)", cf)
	}
	mem := MemoryIDs()
	if len(mem) != 7 || mem[0] != L1DMPKI || mem[6] != DTLBStoreMPKI {
		t.Fatalf("MemoryIDs = %v (paper: metrics 8-14)", mem)
	}
	rt := RuntimeIDs()
	if len(rt) != 5 || rt[0] != GCTriggeredPKI || rt[4] != ContentionPKI {
		t.Fatalf("RuntimeIDs = %v (paper: metrics 19-23)", rt)
	}
}

func TestSliceAndSelect(t *testing.T) {
	var v Vector
	v[CPI] = 1.5
	v[BranchMPKI] = 7.7
	s := v.Slice()
	if len(s) != Count || s[5] != 1.5 {
		t.Fatalf("Slice = %v", s[:8])
	}
	s[5] = 99 // must not alias
	if v[CPI] != 1.5 {
		t.Fatal("Slice aliases vector")
	}
	sel := v.Select([]ID{BranchMPKI, CPI})
	if sel[0] != 7.7 || sel[1] != 1.5 {
		t.Fatalf("Select = %v", sel)
	}
}

func TestMatrixShapes(t *testing.T) {
	vs := []Vector{{}, {}}
	m := Matrix(vs)
	if len(m) != 2 || len(m[0]) != Count {
		t.Fatalf("Matrix shape %dx%d", len(m), len(m[0]))
	}
	sm := SelectMatrix(vs, MemoryIDs())
	if len(sm) != 2 || len(sm[0]) != 7 {
		t.Fatalf("SelectMatrix shape %dx%d", len(sm), len(sm[0]))
	}
}

func TestValidate(t *testing.T) {
	var v Vector
	v[KernelInstructions] = 30
	v[UserInstructions] = 70
	v[CPI] = 1
	if err := v.Validate(); err != nil {
		t.Fatalf("valid vector rejected: %v", err)
	}

	bad := v
	bad[BranchMPKI] = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative MPKI accepted")
	}

	bad = v
	bad[CPUUsage] = 150
	if err := bad.Validate(); err == nil {
		t.Fatal("CPU usage >100% accepted")
	}

	bad = v
	bad[UserInstructions] = 30 // kernel+user = 60
	if err := bad.Validate(); err == nil {
		t.Fatal("kernel+user != 100% accepted")
	}
}
