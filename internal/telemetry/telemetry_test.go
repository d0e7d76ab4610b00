package telemetry

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sampleTrace() *obs.Trace {
	tr := obs.New()
	tr.Add("mstore.hits", 7)
	tr.Add("mstore.misses", 3)
	tr.Gauge("pool.utilization", 0.875)
	for i := 1; i <= 100; i++ {
		tr.Observe("measure.latency", time.Duration(i)*time.Millisecond)
	}
	tr.Observe("sim.phase.run", 42*time.Microsecond)
	return tr
}

func TestWritePrometheus(t *testing.T) {
	tr := sampleTrace()
	var b strings.Builder
	if err := WritePrometheus(&b, tr.Metrics()); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if problems := CheckExposition(text, []string{
		"charnet_mstore_hits_total",
		"charnet_mstore_misses_total",
		"charnet_pool_utilization",
		"charnet_measure_latency_seconds_bucket",
		"charnet_measure_latency_seconds_sum",
		"charnet_measure_latency_seconds_count",
		"charnet_measure_latency_seconds_min",
		"charnet_measure_latency_seconds_max",
		"charnet_measure_latency_seconds_quantile",
		"charnet_sim_phase_run_seconds_count",
	}); len(problems) != 0 {
		t.Fatalf("exposition rejected:\n%s\n---\n%s", strings.Join(problems, "\n"), text)
	}
	if !strings.Contains(text, "charnet_mstore_hits_total 7\n") {
		t.Errorf("counter value not rendered:\n%s", text)
	}
	if n := strings.Count(text, "charnet_measure_latency_seconds_bucket"); n < 3 {
		t.Errorf("expected several buckets, got %d", n)
	}

	// Quantile values are in seconds: 100 uniform samples of 1..100ms put
	// p50 near 0.05s.
	_, p50, _ := strings.Cut(text, `charnet_measure_latency_seconds_quantile{quantile="0.5"} `)
	p50, _, _ = strings.Cut(p50, "\n")
	if v, err := strconv.ParseFloat(p50, 64); err != nil || v < 0.04 || v > 0.06 {
		t.Errorf("p50 = %q s (%v), want ~0.05", p50, err)
	}

	// Determinism: a second render of the same trace is byte-identical.
	var b2 strings.Builder
	if err := WritePrometheus(&b2, tr.Metrics()); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two renders of the same snapshot differ")
	}
}

func TestWritePrometheusSortedAndEmpty(t *testing.T) {
	tr := obs.New()
	tr.Add("z.c", 1)
	tr.Add("a.c", 1)
	var b strings.Builder
	if err := WritePrometheus(&b, tr.Metrics()); err != nil {
		t.Fatal(err)
	}
	if az := strings.Index(b.String(), "charnet_a_c_total"); az < 0 || az > strings.Index(b.String(), "charnet_z_c_total") {
		t.Errorf("counters not in sorted order:\n%s", b.String())
	}

	b.Reset()
	if err := WritePrometheus(&b, obs.MetricsSnapshot{}); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("empty snapshot should write nothing, got %q", b.String())
	}
}

func TestPromNameAndLabel(t *testing.T) {
	if got := promName("mstore.get.hit.latency"); got != "mstore_get_hit_latency" {
		t.Errorf("promName = %q", got)
	}
	if got := promName("weird-name/2"); got != "weird_name_2" {
		t.Errorf("promName = %q", got)
	}
	if got := promLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("promLabel = %q", got)
	}
}

func TestMuxEndpoints(t *testing.T) {
	tr := sampleTrace()
	srv := httptest.NewServer(NewMux(tr, Info{Command: "table4", Fidelity: "quick", Format: "text", Workers: 4}))
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain") || !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ct)
	}
	for _, want := range []string{
		`charnet_build_info{go_version=`,
		`charnet_run_info{command="table4",fidelity="quick",format="text",role="cli",workers="4"} 1`,
		"charnet_measure_latency_seconds_quantile{quantile=\"0.99\"}",
		"charnet_mstore_hits_total 7",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	if body, _ := get("/healthz"); body != "ok\n" {
		t.Errorf("/healthz = %q", body)
	}

	body, ct = get("/infoz")
	if ct != "application/json" {
		t.Errorf("/infoz content-type = %q", ct)
	}
	var info struct {
		Command   string `json:"command"`
		Workers   int    `json:"workers"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatalf("/infoz not JSON: %v\n%s", err, body)
	}
	if info.Command != "table4" || info.Workers != 4 || info.GoVersion == "" {
		t.Errorf("/infoz = %+v", info)
	}

	body, _ = get("/debug/vars")
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}

	if body, _ = get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}
}

// TestMuxNilTrace: the service plane stays up with tracing off —
// /metrics serves only the info families.
func TestMuxNilTrace(t *testing.T) {
	srv := httptest.NewServer(NewMux(nil, Info{Command: "all", Fidelity: "full", Format: "json"}))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "charnet_build_info") {
		t.Errorf("nil-trace /metrics missing build info:\n%s", body)
	}
	if strings.Contains(string(body), "_bucket") {
		t.Errorf("nil-trace /metrics should have no histograms:\n%s", body)
	}
}
