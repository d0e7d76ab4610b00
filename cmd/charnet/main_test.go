package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/charnet"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/serve"
)

// tinyLab is the smallest configuration the drivers accept.
func tinyLab() *experiments.Lab {
	cfg := experiments.Quick()
	cfg.Instructions = 3000
	cfg.DotNetIndividualLimit = 60
	cfg.CoreSweep = []int{1, 4}
	return experiments.NewLab(cfg)
}

func run(lab *experiments.Lab, cmd string, args []string) error {
	return dispatch(context.Background(), lab, cmd, args, "text", io.Discard)
}

func TestDispatchInfoCommands(t *testing.T) {
	lab := tinyLab()
	for _, cmd := range []string{"metrics", "machines", "suites"} {
		if err := run(lab, cmd, nil); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
	}
}

func TestDispatchRun(t *testing.T) {
	lab := tinyLab()
	if err := run(lab, "run", []string{"System.MathBenchmarks"}); err != nil {
		t.Fatal(err)
	}
	if err := run(lab, "run", nil); err == nil {
		t.Fatal("run without a name should fail")
	}
	if err := run(lab, "run", []string{"NoSuchWorkload"}); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestDispatchUnknown(t *testing.T) {
	if err := run(tinyLab(), "fig99", nil); err == nil {
		t.Fatal("unknown command should fail")
	}
}

func TestDispatchOneFigure(t *testing.T) {
	// table3 exercises the measure→PCA path end to end through the CLI.
	if err := run(tinyLab(), "table3", nil); err != nil {
		t.Fatal(err)
	}
}

// TestDispatchFormats renders one driver in every format and checks the
// structured outputs parse.
func TestDispatchFormats(t *testing.T) {
	lab := tinyLab()

	var text bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "text", &text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "Fig 3") {
		t.Errorf("text output missing figure header:\n%s", text.String())
	}

	var js bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "json", &js); err != nil {
		t.Fatal(err)
	}
	var arts []struct {
		Name     string           `json:"name"`
		Payloads []map[string]any `json:"payloads"`
	}
	if err := json.Unmarshal(js.Bytes(), &arts); err != nil {
		t.Fatalf("-format json output is not valid JSON: %v", err)
	}
	if len(arts) != 1 || arts[0].Name != "fig3" || len(arts[0].Payloads) == 0 {
		t.Errorf("unexpected JSON artifact shape: %+v", arts)
	}

	var csv bytes.Buffer
	if err := dispatch(context.Background(), lab, "fig3", nil, "csv", &csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "artifact,payload,kind,row,column,unit,value") {
		t.Errorf("unexpected CSV output:\n%s", csv.String())
	}
}

// TestDispatchCancelled verifies an already-cancelled context aborts a
// driver command with the context error.
func TestDispatchCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := dispatch(ctx, tinyLab(), "fig3", nil, "text", io.Discard)
	if err == nil {
		t.Fatal("cancelled dispatch should fail")
	}
}

func TestExportArgs(t *testing.T) {
	lab := tinyLab()
	if err := run(lab, "export", nil); err == nil || !strings.Contains(err.Error(), "dotnet-individual") {
		t.Fatalf("export without suite: %v, want an error listing the registered suites", err)
	}
	if err := run(lab, "export", []string{"nope"}); err == nil {
		t.Fatal("unknown suite should fail")
	}
	// The format is the global -format flag; a positional format after
	// the suite (bad or formerly valid) fails and names the flag.
	for _, f := range []string{"nope", "json"} {
		if err := run(lab, "export", []string{"spec", f}); err == nil || !strings.Contains(err.Error(), "-format") {
			t.Fatalf("export spec %s: %v, want an error naming -format", f, err)
		}
	}
	if err := run(lab, "export", []string{"spec"}); err != nil {
		t.Fatal(err)
	}
}

// TestExportMatchesMeasure: a suite measurement has one output.
// `charnet -format json export S` prints exactly the body charnetd's
// POST /v1/measure returns for S, each measured on its own Lab.
func TestExportMatchesMeasure(t *testing.T) {
	s := serve.New(tinyLab(), nil, serve.Config{})
	srv := httptest.NewServer(s)
	defer func() {
		srv.Close()
		s.Close()
	}()
	lab := tinyLab()
	for _, suite := range []string{"aspnet", "dotnet-individual"} {
		var export bytes.Buffer
		if err := dispatch(context.Background(), lab, "export", []string{suite}, "json", &export); err != nil {
			t.Fatal(err)
		}
		resp, err := srv.Client().Post(srv.URL+"/v1/measure", "application/json", strings.NewReader(`{"suite":"`+suite+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("%s: measure status %d: %s", suite, resp.StatusCode, body)
		}
		if !bytes.Equal(export.Bytes(), body) {
			t.Fatalf("%s: export and /v1/measure bodies differ\nexport:\n%.400s\nmeasure:\n%.400s", suite, export.Bytes(), body)
		}
	}
}

// TestDispatchTrace: trace emits a header plus one CSV row per sample
// bin of the workload's sampled run.
func TestDispatchTrace(t *testing.T) {
	lab := tinyLab()
	var out bytes.Buffer
	if err := dispatch(context.Background(), lab, "trace", []string{"Json"}, "text", &out); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	p, _ := findWorkload(lab, "Json")
	res, err := charnet.Run(p, charnet.CoreI9(), charnet.Options{
		Instructions: lab.Cfg.Instructions * 4, SampleInterval: lab.Cfg.SampleInterval, AllocScale: 3000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 || len(rows) != len(res.Samples)+1 {
		t.Fatalf("%d CSV rows for %d samples, want a header plus one row each", len(rows), len(res.Samples))
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) || row[0] != strconv.Itoa(i) {
			t.Fatalf("row %d = %v, want %d columns starting with bin %d", i+1, row, len(rows[0]), i)
		}
	}
	if err := run(lab, "trace", nil); err == nil {
		t.Fatal("trace without a name should fail")
	}
}

// TestTraceOutSchema drives a real figure with tracing on and validates
// the -trace-out artifact with obs.CheckChromeTrace, then checks that the
// span taxonomy's driver/measure/sim layers are all present.
func TestTraceOutSchema(t *testing.T) {
	lab := tinyLab()
	tr := obs.New()
	lab.Obs = tr
	if err := run(lab, "table3", nil); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	eventsPath := filepath.Join(dir, "events.jsonl")
	var selfProfile strings.Builder
	// writeObsOutputs prints the self-profile to stderr in production; the
	// file artifacts are what the schema check needs.
	if err := func() error {
		for path, write := range map[string]func(io.Writer) error{
			tracePath:  tr.WriteChromeTrace,
			eventsPath: tr.WriteJSONL,
		} {
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		return tr.WriteSelfProfile(&selfProfile)
	}(); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, problems := obs.CheckChromeTrace(b); len(problems) != 0 {
		t.Fatalf("-trace-out artifact fails the trace schema with %d problems, first: %s", len(problems), problems[0])
	}
	var doc struct {
		TraceEvents []struct {
			Args struct {
				Span string `json:"span"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Args.Span != "" {
			seen[ev.Args.Span] = true
		}
	}
	for _, span := range []string{"driver", "measure", "sim", "prewarm", "run", "derive"} {
		if !seen[span] {
			t.Errorf("trace missing %q spans (got %v)", span, seen)
		}
	}
	if !strings.Contains(selfProfile.String(), "driver table3") {
		t.Errorf("self-profile missing the driver row:\n%s", selfProfile.String())
	}
}
