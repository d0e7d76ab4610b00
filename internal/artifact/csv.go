package artifact

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvWriter is the tidy-format encoder the payload CSV renderers feed.
type csvWriter = csv.Writer

// csvHeader is the tidy long format every payload flattens into: one
// value per record, identified by artifact, payload, row and column.
var csvHeader = []string{"artifact", "payload", "kind", "row", "column", "unit", "value"}

// FormatFloat is the canonical float rendering for CSV output, shared by
// the tidy artifact CSV and cmd/charnet's trace sample CSV.
func FormatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', 6, 64)
}

// WriteCSV emits the artifacts as one tidy CSV table. Numeric cells use
// FormatFloat; text cells pass through as-is. Hidden payloads are
// included — CSV is a structured rendering, and the hidden data is
// exactly what text-only consumers could never reach.
func WriteCSV(w io.Writer, arts []*Artifact) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, a := range arts {
		for _, p := range a.Payloads {
			if err := p.renderCSV(cw, a.Name); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func (v Value) csvString() string {
	if v.IsNum {
		return FormatFloat(v.Num)
	}
	return v.Text
}

func (t *Table) renderCSV(w *csvWriter, artifact string) error {
	for i, row := range t.Rows {
		for j, cell := range row {
			col := Column{}
			if j < len(t.Columns) {
				col = t.Columns[j]
			}
			rec := []string{artifact, t.Name, string(KindTable), strconv.Itoa(i), col.Name, col.Unit, cell.csvString()}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Series) renderCSV(w *csvWriter, artifact string) error {
	for i, row := range s.Values {
		label := ""
		if i < len(s.Labels) {
			label = s.Labels[i]
		}
		for j, v := range row {
			seg := ""
			if j < len(s.Segments) {
				seg = s.Segments[j]
			}
			rec := []string{artifact, s.Name, string(KindSeries), label, seg, s.Unit, FormatFloat(v)}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Scatter) renderCSV(w *csvWriter, artifact string) error {
	for _, g := range s.Groups {
		for i, p := range g.Points {
			rowID := fmt.Sprintf("%s/%d", g.Name, i)
			if err := w.Write([]string{artifact, s.Name, string(KindScatter), rowID, "x", "", FormatFloat(p[0])}); err != nil {
				return err
			}
			if err := w.Write([]string{artifact, s.Name, string(KindScatter), rowID, "y", "", FormatFloat(p[1])}); err != nil {
				return err
			}
		}
	}
	return nil
}

func (t *Tree) renderCSV(w *csvWriter, artifact string) error {
	idx := 0
	var walk func(n *TreeNode) error
	walk = func(n *TreeNode) error {
		if n == nil {
			return nil
		}
		row := strconv.Itoa(idx)
		idx++
		if n.IsLeaf() {
			return w.Write([]string{artifact, t.Name, string(KindTree), row, "leaf", "", n.Label})
		}
		if err := w.Write([]string{artifact, t.Name, string(KindTree), row, "merge_distance", "", FormatFloat(n.Distance)}); err != nil {
			return err
		}
		if err := w.Write([]string{artifact, t.Name, string(KindTree), row, "leaves", "count", strconv.Itoa(n.Size)}); err != nil {
			return err
		}
		if err := walk(n.Left); err != nil {
			return err
		}
		return walk(n.Right)
	}
	return walk(t.Root)
}

func (n *Note) renderCSV(w *csvWriter, artifact string) error {
	for i, line := range n.Lines {
		if err := w.Write([]string{artifact, n.Name, string(KindNote), strconv.Itoa(i), "line", "", line}); err != nil {
			return err
		}
	}
	return nil
}
