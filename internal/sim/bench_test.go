package sim

import (
	"testing"

	"repro/internal/machine"
)

// benchRun measures a short end-to-end simulation of one workload: engine
// setup, prewarm, and the per-instruction hot loop together.
func benchRun(b *testing.B, wire, name string, opts Options) {
	p := mustByName(b, wire, name)
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
	benchRun(b, "dotnet", "System.Runtime", Options{Instructions: 10000})
}

// BenchmarkRunNative is the native counterpart (no CLR in the loop).
func BenchmarkRunNative(b *testing.B) {
	benchRun(b, "spec", "mcf", Options{Instructions: 10000})
}

// BenchmarkRunMultiCore exercises the shared-LLC/NoC path.
func BenchmarkRunMultiCore(b *testing.B) {
	benchRun(b, "aspnet", "Json", Options{Instructions: 10000, Cores: 4})
}

// benchReuse runs one workload repeatedly on a warmed Runner (reset in
// place instead of a new machine, the per-workload cost a suite
// measurement pays) and reports the time per simulated instruction.
func benchReuse(b *testing.B, wire, name string, opts Options) {
	p := mustByName(b, wire, name)
	m := machine.CoreI9()
	var r Runner
	res, err := r.Run(p, m, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = r.Run(p, m, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Counters.Instructions), "ns/instr")
}

// BenchmarkRunReuse is BenchmarkRunManaged on one warmed Runner.
func BenchmarkRunReuse(b *testing.B) {
	benchReuse(b, "dotnet", "System.Runtime", Options{Instructions: 10000})
}

// BenchmarkRunReuseAspNet16 is the 16-core ASP.NET Json run at the Quick
// budget on one warmed Runner: the case that dominates a cold Table IV.
func BenchmarkRunReuseAspNet16(b *testing.B) {
	benchReuse(b, "aspnet", "Json", Options{Instructions: 6000})
}
