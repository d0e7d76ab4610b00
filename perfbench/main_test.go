package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
)

// spec is the part of ../BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// applies are the per-layer metrics each workload must move even at tiny
// size, and bypassed those it must leave at 0. A renamed histogram or
// counter, or a layer that stops recording, reads 0 and fails here.
var (
	applies = map[string][]string{
		"cold-table4": {
			"sim.prewarm_ms", "sim.run_ms", "sim.workload_ms_p50", "sim.mips",
			"sim.instructions", "sim.l1d_accesses", "sim.l3_accesses", "sim.dram_reads", "sim.jit_starts",
			"core.pool_utilization", "core.workloads", "mstore.put_ms",
			"pca.fit_ms", "cluster.agglomerate_ms", "core.characterize_ms",
			"experiments.driver_ms.table4", "artifact.render_json_ms", "artifact.json_bytes",
		},
		"micro-sweep": {
			"sim.prewarm_ms", "sim.run_ms", "sim.mips", "sim.alloc_mb_per_workload", "sim.mallocs_per_workload",
			"sim.instructions", "sim.l1d_accesses", "sim.l3_accesses", "sim.dram_reads", "sim.jit_starts",
			"core.pool_utilization", "core.workloads",
		},
		"warm-store": {
			"mstore.get_hit_ms", "mstore.bytes_read", "mstore.hit_ratio",
			"pca.fit_ms", "cluster.agglomerate_ms", "core.characterize_ms",
			"experiments.driver_ms.table3", "experiments.driver_ms.fig2", "experiments.memcache_hits",
			"artifact.render_json_ms", "artifact.render_text_ms", "artifact.json_bytes",
		},
		"serve-mix": {
			"sim.run_ms", "sim.instructions", "sim.l1d_accesses", "sim.l3_accesses", "sim.dram_reads", "sim.jit_starts",
			"experiments.memcache_hits", "serve.handler_ms_p50", "serve.http_overhead_ms",
			"warm_req_p50_ms", "warm_req_samples", "cold_req_p50_ms", "cold_req_samples", "req_per_s",
		},
	}
	bypassed = map[string][]string{
		"micro-sweep": {"mstore.get_hit_ms", "mstore.put_ms", "serve.handler_ms_p50"},
		"warm-store":  {"sim.instructions", "sim.run_ms", "core.workloads", "mstore.put_ms"},
		"serve-mix":   {"mstore.get_hit_ms", "mstore.put_ms"},
	}
)

// TestTinyRunsEmitDeclaredMetrics runs every workload of BENCHMARK.json
// at smoke-test size, untraced and traced, and checks that each result
// passes its output checks and carries exactly the declared metrics with
// their units.
func TestTinyRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := readSpec(t)
	var names []string
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	for _, w := range names {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			var out bytes.Buffer
			opt := options{workload: w, seed: 7, trace: trace, root: "..", tiny: true}
			if err := run(context.Background(), opt, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", m.Name)
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if !trace {
				var st map[string]stamp
				if err := json.Unmarshal([]byte(lines[len(lines)-2]), &st); err != nil {
					t.Fatalf("%s: stamp line: %v", w, err)
				}
				if st["stamp"].RefMS <= 0 || st["stamp"].HostScale <= 0 {
					t.Errorf("%s: stamp %+v, want a reference time and scale > 0", w, st["stamp"])
				}
				for _, m := range s.EndToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			for _, name := range applies[w] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w, name, res.Metrics[name].Value)
				}
			}
			for _, name := range bypassed[w] {
				if res.Metrics[name].Value != 0 {
					t.Errorf("%s bypasses %s, but it reads %v", w, name, res.Metrics[name].Value)
				}
			}
			sum := 0.0
			for name, m := range res.Metrics {
				if strings.HasPrefix(name, "attr.") && strings.HasSuffix(name, "_frac") {
					if m.Value < -0.01 {
						t.Errorf("%s: %s = %v, a negative self-time", w, name, m.Value)
					}
					sum += m.Value
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Errorf("%s: attr.*_frac sum to %v, want 1", w, sum)
			}
		}
	}
}

// TestCorruptedOutputFails checks that an operation whose output differs
// from the recording by one byte counts as failed, for a driver text and
// for a served body.
func TestCorruptedOutputFails(t *testing.T) {
	d, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	drv, _ := experiments.DriverByName("table3")
	res, err := drv.Run(context.Background(), experiments.NewLab(labConfig()))
	if err != nil {
		t.Fatal(err)
	}
	a := res.Artifact()
	if err := checkTexts(d, nil, []*artifact.Artifact{a}); err != nil {
		t.Fatalf("intact output rejected: %v", err)
	}
	corrupt := func(s string) string { return strings.Replace(s, "0", "1", 1) }
	bad := &artifact.Artifact{Name: a.Name, Payloads: []artifact.Payload{artifact.NoteLine("x", corrupt(artifact.Text(a)))}}

	r := newRunner(&env{work: t.TempDir(), digests: d}, options{})
	r.op(false, func() error { return nil }, func() error { return checkTexts(d, nil, []*artifact.Artifact{bad}) })
	r.op(false, func() error { return nil }, func() error { return checkTexts(d, nil, []*artifact.Artifact{a}) })
	got := r.result()
	if got.Correct || got.Failed != 1 || got.Attempted != 2 {
		t.Errorf("corrupted driver text: correct=%v failed=%d attempted=%d, want false 1 2", got.Correct, got.Failed, got.Attempted)
	}

	b := newBodies(map[string]string{})
	tpl := template{Suite: "dotnet", Machine: "m"}
	b.table[tpl.key()] = digest([]byte(`[{"a":1}]`))
	if err := b.check(tpl, false, []byte("[\n  {\"a\": 1}\n]\n")); err != nil {
		t.Fatalf("intact body rejected: %v", err)
	}
	if err := b.check(tpl, false, []byte("[\n  {\"a\": 2}\n]\n")); err == nil {
		t.Error("a body differing from an identical earlier request was accepted")
	}
	stream := `{"event":"queued","depth":1}` + "\n" + `{"event":"result","artifacts":[{"a":3}]}` + "\n"
	if err := b.check(tpl, true, []byte(stream)); err == nil {
		t.Error("a streamed body differing from its recorded digest was accepted")
	}
}

// TestClassifierColdCoalesced checks the serve-mix cold/warm split: two
// requests for one key sent before its first response arrived both wait
// on the same simulation, so both are cold; a later one is warm.
func TestClassifierColdCoalesced(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	recs := []reqRecord{
		{key: "aspnet|i9", sent: at(0), done: at(500)},  // leader
		{key: "aspnet|i9", sent: at(10), done: at(501)}, // coalesced onto the leader
		{key: "spec|i9", sent: at(20), done: at(300)},   // another key's first touch
		{key: "aspnet|i9", sent: at(600), done: at(601)},
		{key: "spec|i9", sent: at(400), done: at(401)},
	}
	want := []bool{true, true, true, false, false}
	for i, cold := range classify(recs) {
		if cold != want[i] {
			t.Errorf("request %d: cold=%v, want %v", i, cold, want[i])
		}
	}
}
