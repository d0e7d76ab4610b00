package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// sampleTrace builds a small deterministic trace with the pipeline's real
// span taxonomy.
func sampleTrace() *Trace {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	d := tr.Span("driver", "table4")
	s := tr.Span("measure", "dotnet-cats/CoreI9")
	for i := 0; i < 3; i++ {
		w := s.ChildLane(1+i%2, "sim", "Workload")
		p := w.Child("prewarm", "")
		p.End()
		r := w.Child("run", "")
		r.End()
		w.End()
	}
	s.End()
	d.End()
	tr.Add("mstore.hits", 2)
	tr.Add("mstore.misses", 1)
	tr.Gauge("pool.utilization", 0.9)
	tr.Observe("sim.workload.latency", 3*time.Millisecond)
	tr.Observe("sim.workload.latency", 5*time.Millisecond)
	tr.Observe("measure.latency", 11*time.Millisecond)
	return tr
}

func TestChromeTraceSchema(t *testing.T) {
	tr := sampleTrace()
	var b strings.Builder
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if _, problems := CheckChromeTrace([]byte(b.String())); len(problems) != 0 {
		t.Fatalf("trace fails its own schema with %d problems, first: %s", len(problems), problems[0])
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev.Ph]++
	}
	// 2 top spans + 3 sims x 3 spans each.
	if phases["X"] != 11 {
		t.Errorf("got %d X events, want 11", phases["X"])
	}
	if phases["C"] != 2 {
		t.Errorf("got %d C events, want 2", phases["C"])
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	tr := sampleTrace()
	var a, b strings.Builder
	if err := tr.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("two exports of the same trace differ")
	}
}

func TestJSONLExport(t *testing.T) {
	tr := sampleTrace()
	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var spans, counters, gauges, hists int
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var ev jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "span":
			spans++
			if ev.DurUS < 0 {
				t.Errorf("negative span duration: %+v", ev)
			}
		case "counter":
			counters++
		case "gauge":
			gauges++
		case "histogram":
			hists++
			if ev.Count <= 0 || ev.P50US <= 0 || ev.P99US < ev.P50US {
				t.Errorf("implausible histogram summary: %+v", ev)
			}
		default:
			t.Errorf("unknown event type %q", ev.Type)
		}
	}
	if spans != 11 || counters != 2 || gauges != 1 || hists != 2 {
		t.Fatalf("got %d spans, %d counters, %d gauges, %d histograms; want 11/2/1/2", spans, counters, gauges, hists)
	}
}

// TestExportersDeterministic pins the sorted-key-order contract of every
// metric-bearing output: two serializations of the same trace are
// byte-identical, and counters, gauges and histograms each appear in
// sorted name order in the JSONL log, the self-profile and the expvar
// snapshot's JSON form.
func TestExportersDeterministic(t *testing.T) {
	tr := sampleTrace()
	// Deliberately interleave late registrations out of order.
	tr.Add("a.counter", 1)
	tr.Observe("a.hist", time.Millisecond)
	tr.Gauge("a.gauge", 2)

	for name, write := range map[string]func(*strings.Builder) error{
		"jsonl":   func(b *strings.Builder) error { return tr.WriteJSONL(b) },
		"profile": func(b *strings.Builder) error { return tr.WriteSelfProfile(b) },
		"chrome":  func(b *strings.Builder) error { return tr.WriteChromeTrace(b) },
	} {
		var x, y strings.Builder
		if err := write(&x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := write(&y); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if x.String() != y.String() {
			t.Errorf("%s: two exports of the same trace differ", name)
		}
	}

	var b strings.Builder
	if err := tr.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	var order []string
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	for sc.Scan() {
		var ev jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type != "span" {
			order = append(order, ev.Type+"/"+ev.Name)
		}
	}
	want := []string{
		"counter/a.counter", "counter/mstore.hits", "counter/mstore.misses",
		"gauge/a.gauge", "gauge/pool.utilization",
		"histogram/a.hist", "histogram/measure.latency", "histogram/sim.workload.latency",
	}
	if len(order) != len(want) {
		t.Fatalf("metric lines = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("metric line %d = %q, want %q (full: %v)", i, order[i], want[i], order)
		}
	}

	s1, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := json.Marshal(tr.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(s1) != string(s2) {
		t.Error("Snapshot JSON not deterministic")
	}
}

// TestSelfProfileKeepsLongLabels renders two measure spans whose labels
// share their first 60 characters, as two driver batches on one machine
// do: each must be its own row holding its whole label.
func TestSelfProfileKeepsLongLabels(t *testing.T) {
	tr := New(WithClock(newFakeClock(time.Millisecond)))
	prefix := "fig14/dotnet/Intel Core i9-9980XE/System.Collections,System.IO"
	if len(prefix) < 60 {
		t.Fatalf("prefix %q is shorter than 60 characters", prefix)
	}
	d := tr.Span("driver", "fig14")
	labels := []string{prefix + "/heap=200", prefix + "/heap=20000"}
	for _, detail := range labels {
		s := tr.Span("measure", detail)
		s.End()
	}
	d.End()
	var b strings.Builder
	if err := tr.WriteSelfProfile(&b); err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	for _, line := range strings.Split(b.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == "measure" {
			rows[strings.Join(f[1:len(f)-3], " ")]++
		}
	}
	for _, detail := range labels {
		if rows[detail] != 1 {
			t.Errorf("want one row labelled %q, got %d:\n%s", detail, rows[detail], b.String())
		}
	}
	if len(rows) != len(labels) {
		t.Errorf("want %d measure rows, got %v:\n%s", len(labels), rows, b.String())
	}
}

func TestSelfProfile(t *testing.T) {
	tr := sampleTrace()
	var b strings.Builder
	if err := tr.WriteSelfProfile(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	for _, want := range []string{
		"self-profile (wall",
		"driver table4",
		"measure dotnet-cats/CoreI9",
		"sim", "prewarm", "run",
		"counters:",
		"mstore.hits",
		"gauges:",
		"pool.utilization",
		"histograms:",
		"measure.latency",
		"sim.workload.latency",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("self-profile missing %q:\n%s", want, got)
		}
	}
	// The 3 sims must aggregate into one row with count 3.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "sim") && !strings.Contains(line, "driver") {
			f := strings.Fields(line)
			if f[len(f)-1] != "3" {
				t.Errorf("sim row should aggregate 3 spans: %q", line)
			}
			break
		}
	}
}
