package sim

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// benchRun measures a short end-to-end simulation of one workload: engine
// setup, prewarm, and the per-instruction hot loop together.
func benchRun(b *testing.B, suite []workload.Profile, name string, opts Options) {
	p, ok := workload.ByName(suite, name)
	if !ok {
		b.Fatalf("workload %q not found", name)
	}
	m := machine.CoreI9()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(p, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunManaged is a short managed-workload run: JIT, GC and kernel
// models all active.
func BenchmarkRunManaged(b *testing.B) {
	benchRun(b, workload.DotNetCategories(), "System.Runtime", Options{Instructions: 10000})
}

// BenchmarkRunNative is the native counterpart (no CLR in the loop).
func BenchmarkRunNative(b *testing.B) {
	benchRun(b, workload.SpecWorkloads(), "mcf", Options{Instructions: 10000})
}

// BenchmarkRunMultiCore exercises the shared-LLC/NoC path.
func BenchmarkRunMultiCore(b *testing.B) {
	benchRun(b, workload.AspNetWorkloads(), "Json", Options{Instructions: 10000, Cores: 4})
}

// BenchmarkRunReuse is BenchmarkRunManaged on one warmed Runner: reset in
// place instead of a new machine, the per-workload cost a suite
// measurement pays.
func BenchmarkRunReuse(b *testing.B) {
	p, ok := workload.ByName(workload.DotNetCategories(), "System.Runtime")
	if !ok {
		b.Fatal("workload System.Runtime not found")
	}
	m := machine.CoreI9()
	opts := Options{Instructions: 10000}
	var r Runner
	if _, err := r.Run(p, m, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(p, m, opts); err != nil {
			b.Fatal(err)
		}
	}
}
