package workload

import (
	"strings"
	"testing"

	"repro/internal/stats"
)

// mib is one mebibyte, the unit the paper states working sets in.
const mib = 1 << 20

// catalog returns a built-in suite's profiles by wire name.
func catalog(t *testing.T, wire string) []Profile {
	t.Helper()
	def, ok := Builtin().Lookup(wire)
	if !ok {
		t.Fatalf("no built-in suite %q", wire)
	}
	return def.Profiles()
}

// TestBuiltinCatalogCounts: each built-in suite holds the paper's
// population (§II: 44 .NET categories over 2906 microbenchmarks, 53
// ASP.NET benchmarks; the SPEC CPU17 speed suite), uniquely named,
// every profile valid, managed exactly when the suite is .NET.
func TestBuiltinCatalogCounts(t *testing.T) {
	for _, tc := range []struct {
		wire    string
		count   int
		managed bool
	}{
		{"dotnet", 44, true},
		{"dotnet-individual", 2906, true},
		{"aspnet", 53, true},
		{"spec", 20, false},
	} {
		t.Run(tc.wire, func(t *testing.T) {
			ws := catalog(t, tc.wire)
			if len(ws) != tc.count {
				t.Fatalf("got %d workloads, want %d", len(ws), tc.count)
			}
			names := make(map[string]bool, len(ws))
			for i := range ws {
				w := &ws[i]
				if names[w.Name] {
					t.Fatalf("duplicate workload %q", w.Name)
				}
				names[w.Name] = true
				if err := w.Validate(); err != nil {
					t.Fatalf("%s invalid: %v", w.Name, err)
				}
				if w.Managed != tc.managed {
					t.Fatalf("%s: Managed = %v, want %v", w.Name, w.Managed, tc.managed)
				}
			}
		})
	}
}

func TestTableIVSubsetCategoriesPresent(t *testing.T) {
	// The paper's 8-category subset must exist and sum to 305 workloads.
	subset := []string{
		"System.Runtime", "System.Threading", "System.ComponentModel",
		"System.Linq", "System.Net", "System.MathBenchmarks",
		"System.Diagnostics", "CscBench",
	}
	cats, _ := Builtin().Lookup("dotnet")
	inSubset := map[string]bool{}
	for _, name := range subset {
		if _, ok := cats.Lookup(name); !ok {
			t.Fatalf("Table IV category %q missing", name)
		}
		inSubset[name] = true
	}
	total := 0
	for _, w := range catalog(t, "dotnet-individual") {
		if inSubset[w.Category] {
			total++
		}
	}
	if total != 305 {
		t.Fatalf("Table IV subset holds %d workloads, paper says 305", total)
	}
}

func TestAspNetWorkloads(t *testing.T) {
	for _, w := range catalog(t, "aspnet") {
		if w.Suite != AspNet {
			t.Fatalf("%s misconfigured", w.Name)
		}
		if w.DefaultCores < 2 {
			t.Fatalf("%s: ASP.NET workloads run many-core", w.Name)
		}
		if w.WorkingSetBytes >= 500*mib {
			t.Fatalf("%s: ASP.NET working sets are all under 500MiB (§VI-B2)", w.Name)
		}
	}
	// Table IV representatives exist.
	def, _ := Builtin().Lookup("aspnet")
	for _, name := range []string{
		"DbFortunesRaw", "MvcDbFortunesRaw", "MvcDbMultiUpdateRaw", "Plaintext",
		"Json", "CopyToAsync", "MvcJsonNetOutput2M", "MvcJsonNetInput2M",
	} {
		if _, ok := def.Lookup(name); !ok {
			t.Fatalf("Table IV ASP.NET workload %q missing", name)
		}
	}
}

func TestSpecWorkloads(t *testing.T) {
	for _, w := range catalog(t, "spec") {
		if w.KernelFrac > 0.05 {
			t.Fatalf("%s: SPEC kernel share should be tiny (Fig 3)", w.Name)
		}
	}
	def, _ := Builtin().Lookup("spec")
	for _, name := range []string{"mcf", "cactuBSSN", "wrf", "gcc", "omnetpp", "perlbench", "xalancbmk", "bwaves"} {
		if _, ok := def.Lookup(name); !ok {
			t.Fatalf("Table IV SPEC workload %q missing", name)
		}
	}
}

func TestInstructionMixGeomeans(t *testing.T) {
	// Fig 4: SPEC has more loads (GM 35.2% vs ~29%) and fewer stores
	// (GM 11.5% vs ~16%) than the managed suites.
	gm := func(ps []Profile, f func(Profile) float64) float64 {
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = f(p)
		}
		return stats.GeoMean(vals)
	}
	spec, dn, asp := catalog(t, "spec"), catalog(t, "dotnet"), catalog(t, "aspnet")

	specLoads := gm(spec, func(p Profile) float64 { return p.LoadFrac })
	dnLoads := gm(dn, func(p Profile) float64 { return p.LoadFrac })
	aspLoads := gm(asp, func(p Profile) float64 { return p.LoadFrac })
	if !(specLoads > dnLoads && specLoads > aspLoads) {
		t.Fatalf("SPEC loads GM %.3f should exceed .NET %.3f and ASP.NET %.3f", specLoads, dnLoads, aspLoads)
	}
	if specLoads < 0.30 || specLoads > 0.40 {
		t.Fatalf("SPEC loads GM %.3f, paper: 35.2%%", specLoads)
	}

	specStores := gm(spec, func(p Profile) float64 { return p.StoreFrac })
	dnStores := gm(dn, func(p Profile) float64 { return p.StoreFrac })
	aspStores := gm(asp, func(p Profile) float64 { return p.StoreFrac })
	if !(specStores < dnStores && specStores < aspStores) {
		t.Fatalf("SPEC stores GM %.3f should be below .NET %.3f and ASP.NET %.3f", specStores, dnStores, aspStores)
	}
	if specStores < 0.08 || specStores > 0.15 {
		t.Fatalf("SPEC stores GM %.3f, paper: 11.5%%", specStores)
	}
}

func TestBranchDiversity(t *testing.T) {
	// §V-B: SPEC branch shares are far more diverse than the managed
	// suites (xalancbmk high, FP programs low).
	spread := func(ps []Profile) float64 {
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.BranchFrac
		}
		return stats.StdDev(vals)
	}
	spec, asp := spread(catalog(t, "spec")), spread(catalog(t, "aspnet"))
	if spec <= asp*2 {
		t.Fatalf("SPEC branch diversity %.4f should far exceed ASP.NET %.4f", spec, asp)
	}
}

func TestKernelShareOrdering(t *testing.T) {
	// Fig 3: ASP.NET >> .NET >> SPEC in kernel instruction share.
	mean := func(ps []Profile) float64 {
		vals := make([]float64, len(ps))
		for i, p := range ps {
			vals[i] = p.KernelFrac
		}
		return stats.Mean(vals)
	}
	asp, dn, spec := mean(catalog(t, "aspnet")), mean(catalog(t, "dotnet")), mean(catalog(t, "spec"))
	if !(asp > dn && dn > spec) {
		t.Fatalf("kernel share ordering violated: asp=%.3f dotnet=%.3f spec=%.3f", asp, dn, spec)
	}
	if asp < 0.25 {
		t.Fatalf("ASP.NET kernel share %.3f too low for the networking stack", asp)
	}
}

// TestDeterministicGeneration: distinct workloads get distinct seeds.
// That generation repeats bit for bit is FuzzParseSpec's job (its seed
// corpus parses every embedded spec twice) and TestBuiltinCatalogDigest's.
func TestDeterministicGeneration(t *testing.T) {
	ps := catalog(t, "dotnet-individual")
	if ps[0].Seed() == ps[1].Seed() {
		t.Fatal("distinct workloads share a seed")
	}
}

func TestSuiteString(t *testing.T) {
	if DotNet.String() != ".NET" || AspNet.String() != "ASP.NET" || SpecCPU17.String() != "SPEC CPU17" {
		t.Fatal("suite names")
	}
	if Suite("SPEC CPU17 mem").String() != "SPEC CPU17 mem" {
		t.Fatal("external suite formatting")
	}
}

func TestValidateCatchesBadProfiles(t *testing.T) {
	def, _ := Builtin().Lookup("dotnet")
	base, _ := def.Lookup("System.Runtime")
	if err := base.Validate(); err != nil {
		t.Fatalf("base profile invalid: %v", err)
	}

	p := base
	p.BranchFrac = 0.9 // mix sums > 1
	if p.Validate() == nil {
		t.Fatal("invalid mix accepted")
	}

	p = base
	p.BranchPredictability = 0.3
	if p.Validate() == nil {
		t.Fatal("predictability < 0.5 accepted")
	}

	p = base
	p.Managed = false // keeps alloc rates -> invalid
	if p.Validate() == nil {
		t.Fatal("native profile with managed rates accepted")
	}

	p = base
	p.Name = ""
	if p.Validate() == nil {
		t.Fatal("unnamed profile accepted")
	}
}

func TestDotNetFamilies(t *testing.T) {
	var collections []Profile
	for _, w := range catalog(t, "dotnet-individual") {
		if w.Category == "System.Collections" {
			collections = append(collections, w)
		}
	}
	// Named families appear for categories with family tables.
	famSeen := map[string]bool{}
	for _, w := range collections {
		// Name shape: System.Collections.<Family>.<NN>
		parts := strings.Split(w.Name, ".")
		famSeen[parts[len(parts)-2]] = true
	}
	for _, fam := range []string{"Dictionary", "List", "Queue", "ConcurrentDictionary"} {
		if !famSeen[fam] {
			t.Fatalf("family %s missing from System.Collections (saw %v)", fam, famSeen)
		}
	}
	// Families differentiate behavior within a category: the Queue family
	// should be more sequential than the HashSet family on average.
	seqOf := func(fam string) float64 {
		var sum float64
		var n int
		for _, w := range collections {
			if strings.Contains(w.Name, "."+fam+".") {
				sum += w.SequentialFrac
				n++
			}
		}
		return sum / float64(n)
	}
	if seqOf("Queue") <= seqOf("HashSet") {
		t.Fatalf("Queue family (%.2f) should be more sequential than HashSet (%.2f)",
			seqOf("Queue"), seqOf("HashSet"))
	}
}
