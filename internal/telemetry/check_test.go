package telemetry

import (
	"reflect"
	"strings"
	"testing"
)

// writerExposition renders the info families and the test trace's
// metrics, so the checker is tested against exactly what /metrics serves.
func writerExposition(t testing.TB) string {
	t.Helper()
	var b strings.Builder
	if err := WriteInfo(&b, Info{Command: "table4", Fidelity: "quick", Format: "text"}); err != nil {
		t.Fatal(err)
	}
	if err := WritePrometheus(&b, sampleTrace().Metrics()); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// expositionViolations holds one document per rule CheckExposition
// enforces, with a substring of the problem it must report. The fuzz
// target seeds from it too.
var expositionViolations = []struct {
	name, text, wantProblem string
}{
	{
		name: "untyped family",
		text: "some_metric 3\n",

		wantProblem: "no # TYPE",
	},
	{
		name: "descending le",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"0.2\"} 1\nh_bucket{le=\"0.1\"} 2\nh_bucket{le=\"+Inf\"} 2\n" +
			"h_sum 0.3\nh_count 2\n",
		wantProblem: "not ascending",
	},
	{
		name: "decreasing cumulative",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5\n" +
			"h_sum 0.3\nh_count 5\n",
		wantProblem: "cumulative count decreases",
	},
	{
		name: "missing +Inf",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_sum 0.1\nh_count 1\n",
		wantProblem: "missing +Inf",
	},
	{
		name: "+Inf not last",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 2\nh_bucket{le=\"0.1\"} 1\n" +
			"h_sum 0.1\nh_count 2\n",
		wantProblem: "+Inf bucket is not last",
	},
	{
		name: "count mismatch",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\n" +
			"h_sum 0.1\nh_count 3\n",
		wantProblem: "!= _count",
	},
	{
		name: "missing sum",
		text: "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		wantProblem: "_sum",
	},
	{
		name: "wrong quantile labels",
		text: "# TYPE g_quantile gauge\n" +
			"g_quantile{quantile=\"0.5\"} 1\ng_quantile{quantile=\"0.9\"} 2\ng_quantile{quantile=\"0.99\"} 3\n",
		wantProblem: "quantile label",
	},
	{
		name: "quantiles out of order",
		text: "# TYPE g_quantile gauge\n" +
			"g_quantile{quantile=\"0.5\"} 5\ng_quantile{quantile=\"0.95\"} 2\ng_quantile{quantile=\"0.99\"} 3\n",
		wantProblem: "not non-decreasing",
	},
	{
		name:        "unparseable value",
		text:        "# TYPE c counter\nc banana\n",
		wantProblem: "unparseable",
	},
}

func TestCheckExpositionAcceptsWriterOutput(t *testing.T) {
	text := writerExposition(t)
	problems := CheckExposition(text, []string{"charnet_measure_latency_seconds", "charnet_mstore_hits_total", "charnet_build_info"})
	if len(problems) != 0 {
		t.Fatalf("writer output rejected:\n%s\n---\n%s", strings.Join(problems, "\n"), text)
	}
}

func TestCheckExpositionWantMissing(t *testing.T) {
	problems := CheckExposition(writerExposition(t), []string{"charnet_nonexistent_family"})
	if len(problems) != 1 || !strings.Contains(problems[0], "charnet_nonexistent_family") {
		t.Fatalf("problems = %v", problems)
	}
}

func TestCheckExpositionRejectsViolations(t *testing.T) {
	for _, tc := range expositionViolations {
		t.Run(tc.name, func(t *testing.T) {
			problems := CheckExposition(tc.text, nil)
			if !strings.Contains(strings.Join(problems, "\n"), tc.wantProblem) {
				t.Errorf("problems %v missing %q", problems, tc.wantProblem)
			}
		})
	}
}

func TestParseLine(t *testing.T) {
	s, err := parseLine(`charnet_run_info{command="table4",fidelity="quick",format="text",workers="0"} 1`)
	if err != nil {
		t.Fatal(err)
	}
	if s.name != "charnet_run_info" || s.labels["command"] != "table4" || s.value != 1 {
		t.Errorf("parsed %+v", s)
	}
	s, err = parseLine(`esc{v="a\"b\\c"} 2.5`)
	if err != nil {
		t.Fatal(err)
	}
	if s.labels["v"] != `a"b\c` || s.value != 2.5 {
		t.Errorf("escape parsing: %+v", s)
	}
	if _, err := parseLine("bare"); err == nil {
		t.Error("want error for line without value")
	}
}

// FuzzCheckExposition feeds arbitrary text to the exposition checker:
// it must not panic, must report the same problems when called twice,
// and must accept the writer's own output.
func FuzzCheckExposition(f *testing.F) {
	valid := writerExposition(f)
	f.Add(valid)
	for _, tc := range expositionViolations {
		f.Add(tc.text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		problems := CheckExposition(text, nil)
		if again := CheckExposition(text, nil); !reflect.DeepEqual(problems, again) {
			t.Fatalf("two checks disagree:\n%v\n%v", problems, again)
		}
		if text == valid && len(problems) != 0 {
			t.Fatalf("writer output rejected: %v", problems)
		}
	})
}
