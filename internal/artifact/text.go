package artifact

import (
	"fmt"
	"strings"

	"repro/internal/textplot"
)

// textBuilder is the accumulator the payload text renderers append to.
type textBuilder = strings.Builder

// Text renders an artifact exactly as the pre-artifact String() methods
// did: payloads concatenate in order, hidden tables are skipped, and the
// artifact metadata (Name/Title/Paper) is not printed — the payloads
// carry their own headers.
func Text(a *Artifact) string {
	var b textBuilder
	for _, p := range a.Payloads {
		p.renderText(&b)
	}
	return b.String()
}

func (t *Table) renderText(b *textBuilder) {
	if t.Hidden {
		return
	}
	if t.Style == StyleHeatmap {
		rowLabels := make([]string, len(t.Rows))
		vals := make([][]float64, len(t.Rows))
		for i, row := range t.Rows {
			if len(row) > 0 {
				rowLabels[i] = row[0].text()
			}
			cells := make([]float64, 0, len(row)-1)
			for _, c := range row[1:] {
				cells = append(cells, c.Num)
			}
			vals[i] = cells
		}
		colLabels := make([]string, 0, len(t.Columns)-1)
		for _, c := range t.Columns[1:] {
			colLabels = append(colLabels, c.Name)
		}
		b.WriteString(textplot.Heatmap(t.Title, rowLabels, colLabels, vals))
		return
	}
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Name
	}
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		cells := make([]string, len(row))
		for j, c := range row {
			cells[j] = c.text()
		}
		rows[i] = cells
	}
	b.WriteString(textplot.Table(t.Title, header, rows))
}

func (s *Series) renderText(b *textBuilder) {
	if s.Stacked {
		segs := make([][]textplot.StackSegment, len(s.Values))
		for i, row := range s.Values {
			segRow := make([]textplot.StackSegment, len(row))
			for j, v := range row {
				name := ""
				if j < len(s.Segments) {
					name = s.Segments[j]
				}
				segRow[j] = textplot.StackSegment{Name: name, Value: v}
			}
			segs[i] = segRow
		}
		b.WriteString(textplot.StackedBars(s.Title, s.Labels, segs, s.Width))
		return
	}
	vals := make([]float64, len(s.Values))
	for i, row := range s.Values {
		if len(row) > 0 {
			vals[i] = row[0]
		}
	}
	b.WriteString(textplot.Bars(s.Title, s.Labels, vals, s.Width))
}

func (s *Scatter) renderText(b *textBuilder) {
	var pts []textplot.ScatterPoint
	for _, g := range s.Groups {
		glyph := byte('?')
		if g.Glyph != "" {
			glyph = g.Glyph[0]
		}
		for _, p := range g.Points {
			pts = append(pts, textplot.ScatterPoint{X: p[0], Y: p[1], Glyph: glyph})
		}
	}
	b.WriteString(textplot.Scatter(s.Title, pts, s.Rows, s.Cols))
}

func (t *Tree) renderText(b *textBuilder) {
	if t.Title != "" {
		fmt.Fprintf(b, "%s\n", t.Title)
	}
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		if n == nil {
			return
		}
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			fmt.Fprintf(b, "  %s- %s\n", indent, n.Label)
			return
		}
		fmt.Fprintf(b, "  %s+ merge@%.3f (%d leaves)\n", indent, n.Distance, n.Size)
		walk(n.Left, depth+1)
		walk(n.Right, depth+1)
	}
	walk(t.Root, 0)
}

func (n *Note) renderText(b *textBuilder) {
	for _, line := range n.Lines {
		fmt.Fprintf(b, "%s\n", line)
	}
}
