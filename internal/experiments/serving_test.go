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
