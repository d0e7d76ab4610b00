package artifact_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
)

// requireSameJSON fails unless WriteJSON and the encoding/json reference
// agree on arts: the same bytes, or an error on both sides and nothing
// written by either.
func requireSameJSON(t *testing.T, what string, arts []*artifact.Artifact) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := artifact.WriteJSON(&got, arts)
	wantErr := artifact.WriteJSONReference(&want, arts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Errorf("%s: WriteJSON error %v, reference error %v", what, gotErr, wantErr)
		return
	}
	g, w := got.Bytes(), want.Bytes()
	if bytes.Equal(g, w) {
		return
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	lo := max(i-60, 0)
	t.Errorf("%s: WriteJSON differs from the reference at byte %d of %d/%d:\n got: %q\nwant: %q",
		what, i, len(g), len(w), g[lo:min(i+60, len(g))], w[lo:min(i+60, len(w))])
}

// TestWriteJSONMatchesReference pins the direct encoder to the
// encoding/json rendering it replaced, byte for byte: every registered
// driver's artifact, the measure artifact of every built-in suite, and
// hand-built edge cases of each payload kind.
func TestWriteJSONMatchesReference(t *testing.T) {
	ctx := context.Background()
	cfg := experiments.Quick()
	cfg.DotNetIndividualLimit = 60
	lab := experiments.NewLab(cfg)

	var all []*artifact.Artifact
	for _, d := range experiments.Drivers() {
		res, err := d.Run(ctx, lab)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		a := res.Artifact()
		requireSameJSON(t, d.Name, []*artifact.Artifact{a})
		all = append(all, a)
	}
	requireSameJSON(t, "every driver", all)

	m := machine.CoreI9()
	for _, def := range lab.Suites() {
		ms, err := lab.MeasureSuite(ctx, def, m)
		if err != nil {
			t.Fatalf("measure %s: %v", def.Wire, err)
		}
		requireSameJSON(t, "measure "+def.Wire, []*artifact.Artifact{experiments.MeasureArtifact(def.Wire, m, ms)})
		if def.Wire == "aspnet" {
			// A failed workload renders empty metric cells and its error.
			failed := append([]core.Measurement{{Workload: ms[0].Workload, Err: errors.New(`heap "cap" <1 MB> & out`)}}, ms[1:]...)
			requireSameJSON(t, "measure with a failed workload", []*artifact.Artifact{experiments.MeasureArtifact(def.Wire, m, failed)})
		}
	}

	for _, c := range handBuiltCases() {
		requireSameJSON(t, c.name, c.arts)
	}
}

type jsonCase struct {
	name string
	arts []*artifact.Artifact
}

func one(ps ...artifact.Payload) []*artifact.Artifact {
	a := &artifact.Artifact{Name: "case", Title: "hand-built"}
	a.Add(ps...)
	return []*artifact.Artifact{a}
}

// handBuiltCases covers what real drivers rarely emit: nil against empty
// slices, typed-nil payloads, strings encoding/json must escape, float
// formatting at its boundaries, and non-finite numbers.
func handBuiltCases() []jsonCase {
	odd := []string{
		"<script>a & b</script>", "line\u2028sep\u2029para", "ctl\x00\x01\x1f\x7f\b\f\n\r\t",
		"bad \xff\xfe utf8", `quote " backslash \ slash /`, "µs — ünïcode ☃", "",
	}
	nums := []float64{
		0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, 9.99e-7, 1e20, 1e21, -1e21, 1.5e300,
		5e-324, math.MaxFloat64, -math.MaxFloat64, 0.1, 123456789, 1.0 / 3, 2.5e-10, 1e100,
	}
	nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

	var cells []artifact.Value
	for _, s := range odd {
		cells = append(cells, artifact.Str(s))
	}
	for _, f := range append(nums, nonFinite...) {
		cells = append(cells, artifact.Number(f))
	}
	var points [][2]float64
	for _, f := range append(nums, nonFinite...) {
		points = append(points, [2]float64{f, -f})
	}

	cases := []jsonCase{
		{"nil artifact list", nil},
		{"empty artifact list", []*artifact.Artifact{}},
		{"nil artifact", []*artifact.Artifact{nil, {Name: "x"}}},
		{"nil payloads", []*artifact.Artifact{{Name: "x", Title: "t", Paper: "p"}}},
		{"empty payloads", []*artifact.Artifact{{Name: "x", Payloads: []artifact.Payload{}}}},
		{"typed-nil payloads", one((*artifact.Table)(nil), (*artifact.Series)(nil),
			(*artifact.Scatter)(nil), (*artifact.Tree)(nil), (*artifact.Note)(nil))},
		{"zero payloads", one(&artifact.Table{}, &artifact.Series{}, &artifact.Scatter{},
			&artifact.Tree{}, &artifact.Note{})},
		{"empty slices", one(
			&artifact.Table{Name: "t", Columns: []artifact.Column{}, Rows: [][]artifact.Value{}},
			&artifact.Series{Name: "s", Labels: []string{}, Segments: []string{}, Values: [][]float64{}},
			&artifact.Scatter{Name: "c", Groups: []artifact.ScatterGroup{}},
			&artifact.Note{Name: "n", Lines: []string{}},
		)},
		{"nil and empty elements", one(
			&artifact.Table{Name: "t", Columns: []artifact.Column{{}}, Rows: [][]artifact.Value{nil, {}, {{}}}},
			&artifact.Series{Name: "s", Values: [][]float64{nil, {}}},
			&artifact.Scatter{Name: "c", Groups: []artifact.ScatterGroup{{}, {Points: [][2]float64{}}}},
			&artifact.Tree{Name: "d", Root: &artifact.TreeNode{}},
		)},
		{"every optional field", one(
			&artifact.Table{Name: "t", Title: "T", Columns: []artifact.Column{{Name: "a", Unit: "u"}},
				Rows: [][]artifact.Value{{artifact.Num("1.0", 1)}}, Style: artifact.StyleHeatmap, Hidden: true},
			&artifact.Series{Name: "s", Title: "T", Unit: "u", Labels: []string{"a"}, Segments: []string{"x", "y"},
				Values: [][]float64{{1, 2}}, Width: -3, Stacked: true},
			&artifact.Scatter{Name: "c", Title: "T", Rows: -1, Cols: 7},
			&artifact.Tree{Name: "d", Title: "T", Root: &artifact.TreeNode{Distance: 2.5, Size: 3,
				Left: &artifact.TreeNode{Label: "a"}, Right: &artifact.TreeNode{Distance: -1e-9, Size: 2,
					Left: &artifact.TreeNode{Label: "b"}, Right: &artifact.TreeNode{Label: "c", Distance: math.Copysign(0, -1)}}}},
		)},
		{"odd strings", []*artifact.Artifact{{Name: odd[0], Title: odd[1], Paper: odd[2], Payloads: []artifact.Payload{
			&artifact.Table{Name: odd[3], Title: odd[4], Columns: []artifact.Column{{Name: odd[5], Unit: odd[0]}},
				Rows: [][]artifact.Value{cells[:len(odd)]}, Style: odd[1]},
			&artifact.Series{Name: odd[2], Title: odd[3], Unit: odd[4], Labels: odd, Segments: odd[:2]},
			&artifact.Scatter{Name: odd[5], Title: odd[0], Groups: []artifact.ScatterGroup{{Name: odd[1], Glyph: odd[2]}}},
			&artifact.Tree{Name: odd[3], Title: odd[4], Root: &artifact.TreeNode{Label: odd[5]}},
			&artifact.Note{Name: odd[0], Lines: odd},
		}}}},
		{"numbers and non-finite cells", one(
			&artifact.Table{Name: "t", Rows: [][]artifact.Value{cells[len(odd):]}},
			&artifact.Series{Name: "s", Values: [][]float64{append(nums, nonFinite...)}},
			&artifact.Scatter{Name: "c", Groups: []artifact.ScatterGroup{{Name: "g", Glyph: "*", Points: points}}},
		)},
	}
	var dists []*artifact.TreeNode
	for _, f := range nums {
		dists = append(dists, &artifact.TreeNode{Distance: f, Label: fmt.Sprint(f)})
	}
	root := dists[0]
	for _, n := range dists[1:] {
		root = &artifact.TreeNode{Left: root, Right: n, Size: 2}
	}
	cases = append(cases, jsonCase{"finite tree distances", one(&artifact.Tree{Name: "d", Root: root})})
	for _, f := range nonFinite {
		cases = append(cases, jsonCase{fmt.Sprintf("tree distance %v", f), []*artifact.Artifact{
			{Name: "before"},
			{Name: "bad", Payloads: []artifact.Payload{&artifact.Tree{Name: "d", Root: &artifact.TreeNode{
				Left: &artifact.TreeNode{Label: "a"}, Right: &artifact.TreeNode{Label: "b", Distance: f}}}}},
		}})
	}
	return cases
}

// FuzzWriteJSON builds one artifact of all five payload kinds from fuzzed
// strings and float bits and requires the direct encoder and the
// reference to agree: the same bytes, or an error on both sides.
func FuzzWriteJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, b1, b2, b3, b4 uint64, n int) {
		x, y, z, d := math.Float64frombits(b1), math.Float64frombits(b2), math.Float64frombits(b3), math.Float64frombits(b4)
		a := &artifact.Artifact{Name: s1, Title: s2, Paper: s3}
		a.Add(
			&artifact.Table{Name: s1, Title: s2, Columns: []artifact.Column{{Name: s3, Unit: s1}, {Name: s2}},
				Rows: [][]artifact.Value{{artifact.Str(s2), artifact.Num(s3, x)}, {artifact.Number(y), artifact.Number(z)}}, Style: s3},
			&artifact.Series{Name: s2, Title: s3, Unit: s1, Labels: []string{s1, s2}, Segments: []string{s3},
				Values: [][]float64{{x, y}, {z}}, Width: n, Stacked: n%2 == 0},
			&artifact.Scatter{Name: s3, Title: s1, Rows: n, Cols: -n, Groups: []artifact.ScatterGroup{
				{Name: s1, Glyph: s2, Points: [][2]float64{{x, y}, {z, d}}}}},
			&artifact.Tree{Name: s1, Title: s3, Root: &artifact.TreeNode{Distance: d, Size: n,
				Left: &artifact.TreeNode{Label: s2}, Right: &artifact.TreeNode{Label: s3, Distance: x}}},
			&artifact.Note{Name: s2, Lines: []string{s1, s2, s3}},
		)
		requireSameJSON(t, "fuzzed artifact", []*artifact.Artifact{a})
	})
}

// BenchmarkWriteJSON times the JSON renderer on a dotnet-individual
// measure response (220 workloads × 26 columns) plus one payload of each
// other kind; B/op and allocs/op profile the renderer layer.
func BenchmarkWriteJSON(b *testing.B) {
	const rows, metrics = 220, 24
	cols := []artifact.Column{{Name: "workload"}}
	for j := 0; j < metrics; j++ {
		cols = append(cols, artifact.Column{Name: fmt.Sprintf("metric%02d", j), Unit: "per kilo-instruction"})
	}
	cols = append(cols, artifact.Column{Name: "error"})
	t := &artifact.Table{Name: "measurements", Title: "measured metric vectors", Columns: cols}
	labels := make([]string, rows)
	values := make([]float64, rows)
	points := make([][2]float64, rows)
	for i := 0; i < rows; i++ {
		labels[i] = fmt.Sprintf("System.Collections.Benchmark%03d", i)
		row := []artifact.Value{artifact.Str(labels[i])}
		for j := 0; j < metrics; j++ {
			row = append(row, artifact.Number(math.Sqrt(float64(i+1))*float64(j+1)/7))
		}
		t.Rows = append(t.Rows, append(row, artifact.Str("")))
		values[i] = float64(i) / 3
		points[i] = [2]float64{math.Sin(float64(i)), math.Cos(float64(i))}
	}
	root := &artifact.TreeNode{Label: labels[0]}
	for i, l := range labels[1:44] {
		root = &artifact.TreeNode{Distance: float64(i) / 9, Size: i + 2, Left: root, Right: &artifact.TreeNode{Label: l}}
	}
	a := &artifact.Artifact{Name: "measure", Title: "suite dotnet-individual on Core i9", Paper: "serving"}
	a.Add(t,
		artifact.Bars("bars", "a bar per workload", "IPC", labels, values, 40),
		&artifact.Scatter{Name: "pcs", Rows: 20, Cols: 60, Groups: []artifact.ScatterGroup{{Name: "all", Glyph: "*", Points: points}}},
		&artifact.Tree{Name: "dendrogram", Root: root},
		&artifact.Note{Name: "note", Lines: labels[:10]},
	)
	arts := []*artifact.Artifact{a}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := artifact.WriteJSON(io.Discard, arts); err != nil {
			b.Fatal(err)
		}
	}
}
