package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workload"
)

// TestMeasureSuiteByNameRoutes: every published suite name measures, and
// an unknown name errors with the roster.
func TestMeasureSuiteByNameRoutes(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000, DotNetIndividualLimit: 5})
	m := machine.CoreI9()
	ctx := context.Background()
	for _, suite := range lab.SuiteNames() {
		ms, err := lab.MeasureSuiteByName(ctx, suite, m)
		if err != nil {
			t.Fatalf("suite %q: %v", suite, err)
		}
		if len(ms) == 0 {
			t.Fatalf("suite %q: no measurements", suite)
		}
	}
	if _, err := lab.MeasureSuiteByName(ctx, "nope", m); err == nil || !strings.Contains(err.Error(), "unknown suite") {
		t.Fatalf("unknown suite returned %v, want unknown-suite error", err)
	}
}

// TestWorkloadsResolvesInOrder: the drivers' resolver returns the named
// workloads in the order asked, each the suite's own profile, and fails
// on a name the suite lacks or a suite the registry lacks.
func TestWorkloadsResolvesInOrder(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	names := []string{"Plaintext", "Json", "DbFortunesRaw"}
	ps, err := lab.workloads("aspnet", names)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := lab.Suite("aspnet")
	if len(ps) != len(names) {
		t.Fatalf("%d workloads for %d names", len(ps), len(names))
	}
	for i, name := range names {
		if want, _ := def.Lookup(name); ps[i] != want {
			t.Errorf("workload %d is %q, want aspnet's %q", i, ps[i].Name, name)
		}
	}

	_, err = lab.workloads("aspnet", []string{"Json", "System.Runtime"})
	if err == nil || !strings.Contains(err.Error(), `"aspnet"`) || !strings.Contains(err.Error(), `"System.Runtime"`) {
		t.Errorf("missing workload returned %v, want an error naming aspnet and System.Runtime", err)
	}
	_, want := lab.lookup("nope")
	if _, err := lab.workloads("nope", names); err == nil || err.Error() != want.Error() {
		t.Errorf("unknown suite returned %v, want %v", err, want)
	}
}

// TestFilterMeasurements: order follows the request, unknown names skip.
func TestFilterMeasurements(t *testing.T) {
	lab := NewLab(Config{Instructions: 2000})
	ms, err := lab.MeasureSuiteByName(context.Background(), "dotnet", machine.CoreI9())
	if err != nil {
		t.Fatal(err)
	}
	got := FilterMeasurements(ms, []string{"System.Linq", "no-such-workload", "System.Runtime"})
	if len(got) != 2 {
		t.Fatalf("filtered to %d measurements, want 2", len(got))
	}
	if got[0].Workload.Name != "System.Linq" || got[1].Workload.Name != "System.Runtime" {
		t.Fatalf("filter order wrong: %q, %q", got[0].Workload.Name, got[1].Workload.Name)
	}
}

// TestSubsetOfFailsOnMissingName: the Table IV figures' subset picker
// returns the named measurements in subset order, and a measurement list
// that lacks one subset name is an error naming the suite and the
// workload, where FilterMeasurements would quietly return fewer.
func TestSubsetOfFailsOnMissingName(t *testing.T) {
	var ms []core.Measurement
	for i := len(TableIVDotNetSubset) - 1; i >= 0; i-- {
		ms = append(ms, core.Measurement{Workload: workload.Profile{Name: TableIVDotNetSubset[i]}})
	}
	got, err := subsetOf("dotnet", ms, TableIVDotNetSubset)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range got {
		if m.Workload.Name != TableIVDotNetSubset[i] {
			t.Fatalf("subset[%d] = %q, want %q", i, m.Workload.Name, TableIVDotNetSubset[i])
		}
	}

	missing := TableIVDotNetSubset[3]
	var lacking []core.Measurement
	for _, m := range ms {
		if m.Workload.Name != missing {
			lacking = append(lacking, m)
		}
	}
	if n := len(FilterMeasurements(lacking, TableIVDotNetSubset)); n != len(TableIVDotNetSubset)-1 {
		t.Fatalf("FilterMeasurements kept %d, want %d", n, len(TableIVDotNetSubset)-1)
	}
	_, err = subsetOf("dotnet", lacking, TableIVDotNetSubset)
	if want := `suite "dotnet" has no workload "` + missing + `"`; err == nil || err.Error() != want {
		t.Fatalf("subset lacking %s returned %v, want %q", missing, err, want)
	}
}

// TestMeasureArtifactErrorRows: failed workloads render an error cell,
// and the schema still validates.
func TestMeasureArtifactErrorRows(t *testing.T) {
	ms := []core.Measurement{
		{Workload: workload.Profile{Name: "ok"}},
		{Workload: workload.Profile{Name: "boom"}, Err: errors.New("OutOfMemory")},
	}
	a := MeasureArtifact("dotnet", machine.CoreI9(), ms)
	var buf bytes.Buffer
	if err := artifact.WriteJSON(&buf, []*artifact.Artifact{a}); err != nil {
		t.Fatal(err)
	}
	if _, _, problems := artifact.CheckJSON(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Fatalf("artifact fails the schema: %v\n%s", problems, buf.Bytes())
	}
	if !strings.Contains(buf.String(), "OutOfMemory") {
		t.Fatalf("error row not rendered:\n%s", buf.String())
	}
}
