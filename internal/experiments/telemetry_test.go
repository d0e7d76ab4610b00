package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/machine"
	"repro/internal/obs"
)

// TestTelemetryDisabled: with tracing off the driver renders a fixed
// one-line note — the deterministic form `all -format json` ships when
// no observability flag is set.
func TestTelemetryDisabled(t *testing.T) {
	res, err := Telemetry(context.Background(), NewLab(Quick()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Enabled {
		t.Fatal("telemetry should report disabled on an untraced lab")
	}
	text := artifact.Text(res.Artifact())
	if !strings.Contains(text, "tracing disabled") {
		t.Errorf("disabled rendering = %q", text)
	}
	again, err := Telemetry(context.Background(), NewLab(Quick()))
	if err != nil {
		t.Fatal(err)
	}
	if artifact.Text(again.Artifact()) != text {
		t.Error("disabled rendering is not deterministic")
	}
}

// TestTelemetryEnabled: after real pipeline work on a traced lab, the
// artifact carries the latency histogram table with the seam metrics.
func TestTelemetryEnabled(t *testing.T) {
	lab := NewLab(Quick())
	lab.Obs = obs.New()
	if _, err := lab.MeasureSuiteByName(context.Background(), "dotnet", machine.CoreI9()); err != nil {
		t.Fatal(err)
	}
	res, err := Telemetry(context.Background(), lab)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Enabled {
		t.Fatal("telemetry should report enabled")
	}
	text := artifact.Text(res.Artifact())
	for _, want := range []string{
		"latency histograms",
		"measure.latency",
		"sim.workload.latency",
		"pool.queue.wait",
		"sim.phase.prewarm",
		"sim.phase.run",
		"sim.phase.derive",
		"counters",
		"sim.instructions",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("telemetry text missing %q:\n%s", want, text)
		}
	}
	var hist *artifact.Table
	for _, p := range res.Artifact().Payloads {
		if tb, ok := p.(*artifact.Table); ok && tb.Name == "latency-histograms" {
			hist = tb
		}
	}
	if hist == nil {
		t.Fatal("no latency-histograms table")
	}
	for _, row := range hist.Rows {
		if len(row) != 6 {
			t.Fatalf("row %v: want 6 cells", row)
		}
		count, p50, p99 := row[1], row[2], row[4]
		if !count.IsNum || count.Num < 1 {
			t.Errorf("%s: count %v", row[0].Text, count)
		}
		if !p50.IsNum || !p99.IsNum || p99.Num < p50.Num {
			t.Errorf("%s: p50 %v p99 %v out of order", row[0].Text, p50, p99)
		}
	}
}
