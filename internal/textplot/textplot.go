// Package textplot renders the reproduction's tables and figures as plain
// text: horizontal bar charts, stacked bars, two-dimensional scatter plots
// and heatmaps. The artifact renderers and the CLI use it to print
// paper-style output without any graphics dependency. (Dendrograms are
// rendered by internal/artifact from its own tree payload.)
package textplot

import (
	"fmt"
	"math"
	"strings"
)

// Bars renders a labeled horizontal bar chart. Values may be any
// magnitude; bars are scaled to width characters against the maximum.
func Bars(title string, labels []string, values []float64, width int) string {
	if width <= 0 {
		width = 50
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	maxv := 0.0
	maxLabel := 0
	for i, v := range values {
		if v > maxv {
			maxv = v
		}
		if len(labels[i]) > maxLabel {
			maxLabel = len(labels[i])
		}
	}
	for i, v := range values {
		n := 0
		if maxv > 0 {
			n = int(v / maxv * float64(width))
		}
		if n < 0 {
			n = 0
		}
		fmt.Fprintf(&b, "  %-*s |%s %.4g\n", maxLabel, labels[i], strings.Repeat("#", n), v)
	}
	return b.String()
}

// StackSegment is one segment of a stacked bar.
type StackSegment struct {
	Name  string
	Value float64
}

// StackedBars renders per-row stacked bars (e.g. Top-Down profiles), each
// scaled so a full row is width characters; segment glyphs cycle.
func StackedBars(title string, rows []string, segs [][]StackSegment, width int) string {
	if width <= 0 {
		width = 60
	}
	glyphs := []byte{'#', '=', '-', '.', '+', '~', 'o', '*'}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	maxLabel := 0
	for _, r := range rows {
		if len(r) > maxLabel {
			maxLabel = len(r)
		}
	}
	// Legend from the first row's segment names.
	if len(segs) > 0 {
		b.WriteString("  legend:")
		for i, s := range segs[0] {
			fmt.Fprintf(&b, " %c=%s", glyphs[i%len(glyphs)], s.Name)
		}
		b.WriteByte('\n')
	}
	for i, r := range rows {
		total := 0.0
		for _, s := range segs[i] {
			total += s.Value
		}
		fmt.Fprintf(&b, "  %-*s |", maxLabel, r)
		if total > 0 {
			for j, s := range segs[i] {
				n := int(s.Value / total * float64(width))
				b.WriteString(strings.Repeat(string(glyphs[j%len(glyphs)]), n))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ScatterPoint is one labeled scatter point.
type ScatterPoint struct {
	X, Y  float64
	Glyph byte
}

// Scatter renders points on a rows x cols character grid with axes scaled
// to the data range (Figs 5-7 style).
func Scatter(title string, points []ScatterPoint, rows, cols int) string {
	if rows <= 0 {
		rows = 20
	}
	if cols <= 0 {
		cols = 60
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range points {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	//charnet:ignore floateq degenerate-axis guard: flat data yields exact copies, and widening is cosmetic
	if len(points) == 0 || minX == maxX {
		maxX = minX + 1
	}
	//charnet:ignore floateq degenerate-axis guard: flat data yields exact copies, and widening is cosmetic
	if len(points) == 0 || minY == maxY {
		maxY = minY + 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	for _, p := range points {
		c := int((p.X - minX) / (maxX - minX) * float64(cols-1))
		r := int((p.Y - minY) / (maxY - minY) * float64(rows-1))
		r = rows - 1 - r // origin bottom-left
		if r >= 0 && r < rows && c >= 0 && c < cols {
			grid[r][c] = p.Glyph
		}
	}
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	fmt.Fprintf(&b, "  y: [%.3g, %.3g]  x: [%.3g, %.3g]\n", minY, maxY, minX, maxX)
	for _, row := range grid {
		fmt.Fprintf(&b, "  |%s|\n", string(row))
	}
	return b.String()
}

// Table renders a simple aligned table.
func Table(title string, header []string, rows [][]string) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		b.WriteString("  ")
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
			}
		}
		b.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// heatGlyphs maps [-1, 1] onto a diverging glyph ramp (negative left,
// positive right).
var heatGlyphs = []byte("#=-. +*%@")

// Heatmap renders a matrix of values in [-1, 1] as a glyph grid: '@' is a
// strong positive, '#' a strong negative, space is neutral. Used for the
// correlation matrices of the §VII-A study.
func Heatmap(title string, rowLabels, colLabels []string, values [][]float64) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	maxLabel := 0
	for _, r := range rowLabels {
		if len(r) > maxLabel {
			maxLabel = len(r)
		}
	}
	// Column header: first letter of each column.
	fmt.Fprintf(&b, "  %-*s ", maxLabel, "")
	for _, c := range colLabels {
		if len(c) > 0 {
			b.WriteByte(c[0])
		} else {
			b.WriteByte('?')
		}
	}
	b.WriteString("   (")
	for i, c := range colLabels {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c)
	}
	b.WriteString(")\n")
	for i, r := range rowLabels {
		fmt.Fprintf(&b, "  %-*s ", maxLabel, r)
		for j := range colLabels {
			v := 0.0
			if i < len(values) && j < len(values[i]) {
				v = values[i][j]
			}
			if v < -1 {
				v = -1
			}
			if v > 1 {
				v = 1
			}
			idx := int((v + 1) / 2 * float64(len(heatGlyphs)-1))
			b.WriteByte(heatGlyphs[idx])
		}
		b.WriteByte('\n')
	}
	b.WriteString("  scale: # strong negative ... @ strong positive\n")
	return b.String()
}
