package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/testutil"
)

var lower = spec{Name: "op_p50_s", Better: "lower", Bound: 0.25}

// TestComparePublishedPairs reproduces two comparisons published with
// earlier changes, from their raw runs matched by pair index.
func TestComparePublishedPairs(t *testing.T) {
	for _, tc := range []struct {
		name                 string
		base, head           []float64
		median, q1, q3, hmed float64
	}{
		{
			name:   "micro-sweep op_p50_s",
			base:   []float64{4.641, 5.902, 6.172, 5.155, 5.627, 5.945, 5.659, 5.361, 5.744, 5.131},
			head:   []float64{0.909, 0.932, 0.878, 0.938, 0.928, 0.942, 0.889, 0.968, 0.956, 0.989},
			median: 5.643, q1: 5.2065, q3: 5.8625, hmed: 0.935,
		},
		{
			name:   "cold-table4 op_p50_s",
			base:   []float64{0.668, 0.610, 0.615, 0.665, 0.660, 0.606, 0.673, 0.676, 0.663, 0.637},
			head:   []float64{0.549, 0.495, 0.590, 0.562, 0.547, 0.538, 0.626, 0.609, 0.580, 0.617},
			median: 0.6615, q1: 0.6205, q3: 0.66725, hmed: 0.571,
		},
	} {
		c := compare(lower, tc.base, tc.head)
		for _, v := range []struct {
			what      string
			got, want float64
		}{
			{"base median", c.Base.Median, tc.median},
			{"base q1", c.Base.Q1, tc.q1},
			{"base q3", c.Base.Q3, tc.q3},
			{"head median", c.Head.Median, tc.hmed},
		} {
			testutil.InDelta(t, tc.name+" "+v.what, v.got, v.want, 1e-9)
		}
		if c.HeadWins != 10 || c.Verdict != "better" {
			t.Errorf("%s: head wins %d, verdict %s; want 10, better", tc.name, c.HeadWins, c.Verdict)
		}
	}
}

// TestCompareVerdicts covers each verdict, the order they are checked
// in, and tied pairs.
func TestCompareVerdicts(t *testing.T) {
	higher := spec{Name: "req_per_s", Better: "higher", Bound: 0.25}
	tight := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11} // IQR 4.5 around 6.5
	for _, tc := range []struct {
		name       string
		sp         spec
		base, head []float64
		wins       int
		verdict    string
	}{
		{"30% slower", lower, tight, scale(tight, 1.3), 0, "worse"},
		{"30% lower throughput", higher, tight, scale(tight, 0.7), 0, "worse"},
		{"worse outranks unresolved", lower, wide, scale(wide, 1.5), 0, "worse"},
		{"spread above the bound", lower, wide, []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2}, 5, "unresolved"},
		{"every head run beats every base run", lower, wide, []float64{1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5}, 10, "better"},
		{"10% faster", lower, tight, scale(tight, 0.9), 10, "better"},
		{"10% higher throughput", higher, tight, scale(tight, 1.1), 10, "better"},
		{"8 of 10 pairs", lower, tight, append(scale(tight[:8], 0.9), 1.5, 1.5), 8, "same"},
		{"gap inside the base IQR", lower, tight, scale(tight, 0.995), 10, "same"},
		{"identical runs tie", lower, tight, tight, 0, "same"},
		{"two ties count for neither", lower, tight, append(scale(tight[:8], 0.9), tight[8:]...), 8, "same"},
		{"ties, higher is better", higher, tight, tight, 0, "same"},
	} {
		c := compare(tc.sp, tc.base, tc.head)
		if c.HeadWins != tc.wins || c.Verdict != tc.verdict {
			t.Errorf("%s: head wins %d, verdict %s; want %d, %s", tc.name, c.HeadWins, c.Verdict, tc.wins, tc.verdict)
		}
	}
}

// TestProblems: a worse metric, an incorrect run and a larger failed
// share each fail the comparison; an equal failed share does not.
func TestProblems(t *testing.T) {
	ok := tally{Correct: true, Attempted: 100, Failed: 1}
	for _, tc := range []struct {
		name       string
		base, head tally
		verdict    string
		fails      bool
	}{
		{"clean", ok, ok, "same", false},
		{"better", ok, ok, "better", false},
		{"worse", ok, ok, "worse", true},
		{"unresolved", ok, ok, "unresolved", false},
		{"incorrect head", ok, tally{Attempted: 100, Failed: 1}, "same", true},
		{"incorrect base", tally{Attempted: 100, Failed: 1}, ok, "same", true},
		{"higher failed share", ok, tally{Correct: true, Attempted: 100, Failed: 3}, "same", true},
		{"same failed share", ok, tally{Correct: true, Attempted: 300, Failed: 3}, "same", false},
		{"lower failed share", ok, tally{Correct: true, Attempted: 100}, "same", false},
	} {
		rec := record{Workloads: []workload{{Name: "w", Base: tc.base, Head: tc.head,
			Metrics: []comparison{{spec: lower, Verdict: tc.verdict}}}}}
		if got := rec.problems(); (len(got) > 0) != tc.fails {
			t.Errorf("%s: problems %q, want failing %v", tc.name, got, tc.fails)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"a", "b"}, {"-h"}} {
		var stderr strings.Builder
		if code := run(context.Background(), ".", args, io.Discard, &stderr); code != 2 || !strings.Contains(stderr.String(), "usage: benchdiff BASE") {
			t.Errorf("args %q: exit %d, stderr %q; want 2 and usage", args, code, stderr.String())
		}
	}
}

// stub is the benchmark command of the test repository. It logs each
// invocation and reports the value side.txt holds; its stamp carries a
// rev that matches neither commit.
const stub = `while [ $# -gt 0 ]; do
	case $1 in
	--workload) w=$2 ;;
	--seed) s=$2 ;;
	--seconds) sec=$2 ;;
	esac
	shift 2
done
read side value correct < side.txt
echo "$side $w $s $(pwd)" >> LOG
echo "a line before the stamp"
echo '{"stamp":{"rev":"0000000","workload":"'$w'","seed":'$s',"seconds":'$sec',"trace":false}}'
echo '{"correct":'$correct',"attempted":8,"failed":0,"metrics":{"op_p50_s":{"value":'$value'},"peak_rss_mb":{"value":50}}}'
`

const stubBenchmark = `{
  "command": ["sh", "bench/stub.sh"],
  "paths": ["bench"],
  "run_seconds": 25,
  "workloads": [{"name": "alpha"}, {"name": "beta"}],
  "end_to_end": [
    {"name": "op_p50_s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.25}
  ]
}
`

// TestPairRunner runs the whole comparison against a stub benchmark in a
// temporary repository whose two commits differ only in side.txt.
func TestPairRunner(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp) // where the base checkout goes
	log := filepath.Join(t.TempDir(), "log")
	gitIn := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %q: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(repo, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	invocations := func() []string {
		b, err := os.ReadFile(log)
		if os.IsNotExist(err) {
			return nil
		}
		if err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(string(b)), "\n")
	}
	compareTo := func(base string) (int, string) {
		var stdout, stderr strings.Builder
		code := run(context.Background(), repo, []string{base}, &stdout, &stderr)
		return code, stdout.String() + stderr.String()
	}

	gitIn("init", "-q")
	write("README", "no benchmark yet\n")
	gitIn("add", "-A")
	gitIn("commit", "-q", "-m", "before the benchmark")
	write("BENCHMARK.json", stubBenchmark)
	write("bench/stub.sh", strings.Replace(stub, "LOG", log, 1))
	write("side.txt", "base 2 true\n")
	gitIn("add", "-A")
	gitIn("commit", "-q", "-m", "base")
	base := gitIn("rev-parse", "--short=7", "HEAD")
	write("side.txt", "head 1 true\n")
	gitIn("commit", "-q", "-a", "-m", "head")
	head := gitIn("rev-parse", "--short=7", "HEAD")

	if code, out := compareTo("HEAD~2"); code != 2 || invocations() != nil {
		t.Fatalf("base without BENCHMARK.json: exit %d, %d runs; want 2, none\n%s", code, len(invocations()), out)
	}

	code, out := compareTo("HEAD~1")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	raw, err := os.ReadFile(filepath.Join(repo, "BENCH_"+head+"-vs-"+base+".json"))
	if err != nil {
		t.Fatal(err)
	}
	var rec record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Base != base || rec.Head != head {
		t.Errorf("record labels %s vs %s, want git's %s vs %s", rec.Head, rec.Base, head, base)
	}
	if len(rec.Workloads) != 2 {
		t.Fatalf("%d workloads recorded, want 2", len(rec.Workloads))
	}
	for _, w := range rec.Workloads {
		if v := w.Metrics[0]; v.Verdict != "better" || v.HeadWins != pairs {
			t.Errorf("%s op_p50_s: %d wins, %s; want %d, better", w.Name, v.HeadWins, v.Verdict, pairs)
		}
		if v := w.Metrics[1]; v.Verdict != "same" || v.HeadWins != 0 {
			t.Errorf("%s peak_rss_mb: %d wins, %s; want 0, same", w.Name, v.HeadWins, v.Verdict)
		}
		if !w.Base.Correct || !w.Head.Correct || w.Head.Attempted != 8*pairs {
			t.Errorf("%s tallies %+v %+v", w.Name, w.Base, w.Head)
		}
	}

	// The log holds one line per run, in run order: base first in even
	// pairs, head first in odd ones, one seed per pair.
	lines := invocations()
	if len(lines) != 2*2*pairs {
		t.Fatalf("%d runs, want %d", len(lines), 2*2*pairs)
	}
	for n, line := range lines {
		w := rec.Workloads[n/(2*pairs)]
		i := n % (2 * pairs) / 2
		want := [2]string{"base", "head"}[(i+n%2)%2] // n%2 is 1 for a pair's second run
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != want || f[1] != w.Name || f[2] != strconv.FormatUint(w.Seeds[i], 10) {
			t.Fatalf("run %d is %q, want the %s side of %s pair %d, seed %d", n, line, want, w.Name, i, w.Seeds[i])
		}
		if inTmp := strings.HasPrefix(f[3], tmp); inTmp != (want == "base") {
			t.Errorf("run %d ran in %s", n, f[3])
		}
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temporary checkout left behind: %v %v", left, err)
	}

	// A benchmark that differs from the base's is refused before any run.
	write("bench/stub.sh", strings.Replace(stub, "LOG", log, 1)+"# changed\n")
	if code, out := compareTo(base); code != 2 || len(invocations()) != len(lines) {
		t.Fatalf("changed benchmark: exit %d, %d new runs; want 2, none\n%s", code, len(invocations())-len(lines), out)
	}
	gitIn("checkout", "--", "bench")

	// An incorrect run fails the comparison, and the record still lands.
	write("side.txt", "head 1 false\n")
	if code, out := compareTo(base); code != 1 {
		t.Fatalf("incorrect head: exit %d, want 1\n%s", code, out)
	}
	if _, err := os.Stat(filepath.Join(repo, "BENCH_"+head+"-dirty-vs-"+base+".json")); err != nil {
		t.Fatal(err)
	}
}

// TestCommittedRecordsRecompute recomputes every committed comparison
// record from its raw runs: a hand-edited median, win count or verdict
// fails here. Records from the earlier go test -bench harness are named
// BENCH_<rev>.json and are not comparisons.
func TestCommittedRecordsRecompute(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*-vs-*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rec record
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		name := filepath.Base(path)
		if name != "BENCH_"+rec.Head+"-vs-"+rec.Base+".json" || len(rec.Workloads) == 0 {
			t.Errorf("%s records %s vs %s with %d workloads", name, rec.Head, rec.Base, len(rec.Workloads))
		}
		for _, w := range rec.Workloads {
			if len(w.Seeds) != pairs {
				t.Errorf("%s %s: %d seeds, want %d", name, w.Name, len(w.Seeds), pairs)
			}
			for _, c := range w.Metrics {
				if len(c.Base.Runs) != pairs || len(c.Head.Runs) != pairs {
					t.Errorf("%s %s %s: %d and %d runs, want %d", name, w.Name, c.Name, len(c.Base.Runs), len(c.Head.Runs), pairs)
					continue
				}
				if got := compare(c.spec, c.Base.Runs, c.Head.Runs); !reflect.DeepEqual(got, c) {
					t.Errorf("%s %s %s: recorded %+v, recomputed %+v", name, w.Name, c.Name, c, got)
				}
			}
		}
	}
}
