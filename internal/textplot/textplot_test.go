package textplot

import (
	"strings"
	"testing"
)

func TestBars(t *testing.T) {
	out := Bars("title", []string{"a", "bb"}, []float64{1, 2}, 10)
	if !strings.Contains(out, "title") || !strings.Contains(out, "bb") {
		t.Fatalf("bars output %q", out)
	}
	// The max value gets the full width.
	if !strings.Contains(out, strings.Repeat("#", 10)) {
		t.Fatalf("max bar not full width: %q", out)
	}
	// Zero-safe.
	if out := Bars("", []string{"z"}, []float64{0}, 10); !strings.Contains(out, "z") {
		t.Fatal("zero bars broken")
	}
}

func TestStackedBars(t *testing.T) {
	segs := [][]StackSegment{
		{{"fe", 50}, {"be", 50}},
		{{"fe", 10}, {"be", 90}},
	}
	out := StackedBars("td", []string{"w1", "w2"}, segs, 20)
	if !strings.Contains(out, "legend:") || !strings.Contains(out, "fe") {
		t.Fatalf("stacked output %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title + legend + 2 rows
		t.Fatalf("got %d lines", len(lines))
	}
}

func TestScatter(t *testing.T) {
	pts := []ScatterPoint{{0, 0, 'a'}, {1, 1, 'b'}, {0.5, 0.5, 'c'}}
	out := Scatter("sc", pts, 5, 10)
	for _, g := range []string{"a", "b", "c"} {
		if !strings.Contains(out, g) {
			t.Fatalf("glyph %s missing: %q", g, out)
		}
	}
	// Degenerate input must not panic.
	_ = Scatter("", nil, 3, 3)
	_ = Scatter("", []ScatterPoint{{1, 1, 'x'}}, 3, 3)
}

func TestTable(t *testing.T) {
	out := Table("t", []string{"name", "val"}, [][]string{{"abc", "1"}, {"d", "22"}})
	if !strings.Contains(out, "name") || !strings.Contains(out, "abc") || !strings.Contains(out, "---") {
		t.Fatalf("table output %q", out)
	}
}

func TestHeatmap(t *testing.T) {
	out := Heatmap("hm", []string{"rowA", "rowB"}, []string{"x", "y", "z"},
		[][]float64{{-1, 0, 1}, {0.5, -0.5, 0}})
	for _, want := range []string{"hm", "rowA", "rowB", "scale:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
	// Strong negative renders '#', strong positive '@'.
	lines := strings.Split(out, "\n")
	var rowALine string
	for _, l := range lines {
		if strings.Contains(l, "rowA") {
			rowALine = l
		}
	}
	if !strings.Contains(rowALine, "#") || !strings.Contains(rowALine, "@") {
		t.Fatalf("rowA should span the ramp: %q", rowALine)
	}
	// Out-of-range values clamp instead of panicking.
	_ = Heatmap("", []string{"r"}, []string{"c"}, [][]float64{{5}})
	// Missing values render as neutral.
	_ = Heatmap("", []string{"r1", "r2"}, []string{"c1", "c2"}, [][]float64{{1}})
}
