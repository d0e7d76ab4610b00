// Package artifact is the typed result model of the experiments layer.
//
// Every driver produces an Artifact — a named, ordered list of typed
// payloads drawn from a small fixed vocabulary (Table, Series, Scatter,
// Tree, Note) — and the renderers in this package turn artifacts into
// text, JSON or CSV. Keeping drivers payload-producing and rendering at
// the edge means the same result can feed the CLI, downstream analysis,
// or a future serving front-end without re-parsing text.
//
// The text renderer is byte-compatible with the pre-artifact String()
// renderings (verified against docs/full_output.txt by scripts/check.sh),
// which constrains the vocabulary in one visible way: legacy prose blocks
// are carried by Note payloads, and where a Note already presents a
// payload's numbers in prose form, the structured twin is marked Hidden so
// the text renderer does not print the data twice.
//
// The JSON renderer is a direct encoder over the closed vocabulary. Its
// bytes equal what encoding/json's indented Encoder produced from the
// same artifacts when that was the renderer; TestWriteJSONMatchesReference
// and FuzzWriteJSON pin this against that implementation, kept as the test
// reference.
package artifact

import "strconv"

// Kind discriminates payload types in structured renderings.
type Kind string

// The payload vocabulary. Every payload of every driver is one of these.
const (
	KindTable   Kind = "table"
	KindSeries  Kind = "series"
	KindScatter Kind = "scatter"
	KindTree    Kind = "tree"
	KindNote    Kind = "note"
)

// Kinds returns the full payload vocabulary in declaration order, for
// validators that must stay exhaustive (CheckJSON).
func Kinds() []Kind {
	return []Kind{KindTable, KindSeries, KindScatter, KindTree, KindNote}
}

// Payload is one typed block of a driver's result. The interface is
// closed (its render methods are unexported) so the vocabulary is fixed
// here and renderers can be exhaustive.
type Payload interface {
	Kind() Kind
	// renderText appends the payload's text form — byte-compatible with
	// the pre-artifact String() renderings — to b.
	renderText(b *textBuilder)
	// renderCSV appends the payload's rows to a tidy CSV stream.
	renderCSV(w *csvWriter, artifact string) error
	// renderJSON appends the payload's JSON object (null for a nil
	// payload) to e.
	renderJSON(e *jsonEncoder)
}

// Artifact is one driver's complete result: identifying metadata plus the
// ordered payloads. Name matches the driver's registry name; Paper is the
// paper reference the driver reproduces.
type Artifact struct {
	Name     string
	Title    string
	Paper    string
	Payloads []Payload
}

// Add appends payloads in order.
func (a *Artifact) Add(ps ...Payload) { a.Payloads = append(a.Payloads, ps...) }

// Producer is implemented by every driver result: the seam between the
// experiments layer (which computes) and the renderers (which present).
type Producer interface {
	Artifact() *Artifact
}

// Value is one table cell: its text form (exactly what the text renderer
// prints) plus the underlying number when the cell is numeric, so
// structured renderings carry full precision. A numeric cell with empty
// Text prints as the canonical shortest rendering of Num, formatted only
// when the text renderer asks; JSON and CSV never read a numeric cell's
// Text.
type Value struct {
	Text  string
	Num   float64
	IsNum bool
}

// Num builds a numeric cell with an explicit text rendering.
func Num(text string, v float64) Value { return Value{Text: text, Num: v, IsNum: true} }

// Number builds a numeric cell printed in the canonical shortest
// rendering. The text is left empty until the text renderer needs it.
func Number(v float64) Value { return Value{Num: v, IsNum: true} }

// text is the cell as the text renderer prints it.
func (v Value) text() string {
	if v.IsNum && v.Text == "" {
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	}
	return v.Text
}

// Str builds a text-only cell.
func Str(text string) Value { return Value{Text: text} }

// Column describes one table column.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// StyleHeatmap selects the diverging glyph-grid text rendering for a
// Table whose first column is the row label and whose remaining cells are
// correlations in [-1, 1].
const StyleHeatmap = "heatmap"

// Table is a rectangular payload: columns with optional units, rows of
// cells in a stable order.
type Table struct {
	Name    string    `json:"name"`
	Title   string    `json:"title,omitempty"` // rendered above the table
	Columns []Column  `json:"columns"`
	Rows    [][]Value `json:"rows"`
	// Style selects the text rendering: "" is an aligned table,
	// StyleHeatmap the glyph grid.
	Style string `json:"style,omitempty"`
	// Hidden tables carry data that the legacy text rendering presents as
	// prose in an adjacent Note; they appear in structured renderings only.
	Hidden bool `json:"hidden,omitempty"`
}

// Kind implements Payload.
func (*Table) Kind() Kind { return KindTable }

// Series is a labeled value series: plain bars (one segment per row) or
// stacked bars (several segments summing to a per-row whole).
type Series struct {
	Name     string      `json:"name"`
	Title    string      `json:"title,omitempty"`
	Unit     string      `json:"unit,omitempty"`
	Labels   []string    `json:"labels"`
	Segments []string    `json:"segments"`
	Values   [][]float64 `json:"values"` // [row][segment]
	Width    int         `json:"width,omitempty"`
	Stacked  bool        `json:"stacked,omitempty"`
}

// Kind implements Payload.
func (*Series) Kind() Kind { return KindSeries }

// Bars builds a plain single-segment Series.
func Bars(name, title, unit string, labels []string, values []float64, width int) *Series {
	vals := make([][]float64, len(values))
	for i, v := range values {
		vals[i] = []float64{v}
	}
	return &Series{
		Name: name, Title: title, Unit: unit,
		Labels: labels, Segments: []string{unit}, Values: vals, Width: width,
	}
}

// ScatterGroup is one glyph's points in a scatter payload.
type ScatterGroup struct {
	Name   string       `json:"name"`
	Glyph  string       `json:"glyph"` // single-character plot glyph
	Points [][2]float64 `json:"points"`
}

// Scatter is a two-dimensional point cloud, grouped by glyph, with the
// text grid dimensions the legacy rendering used.
type Scatter struct {
	Name   string         `json:"name"`
	Title  string         `json:"title,omitempty"`
	Rows   int            `json:"rows"`
	Cols   int            `json:"cols"`
	Groups []ScatterGroup `json:"groups"`
}

// Kind implements Payload.
func (*Scatter) Kind() Kind { return KindScatter }

// TreeNode is one node of a dendrogram payload. Leaves carry a label;
// internal nodes carry the merge distance and the leaf count beneath.
type TreeNode struct {
	Label    string    `json:"label,omitempty"`
	Distance float64   `json:"distance,omitempty"`
	Size     int       `json:"size,omitempty"`
	Left     *TreeNode `json:"left,omitempty"`
	Right    *TreeNode `json:"right,omitempty"`
}

// IsLeaf reports whether the node has no children.
func (n *TreeNode) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Tree is a hierarchical-clustering payload (Fig 1's dendrogram).
type Tree struct {
	Name  string    `json:"name"`
	Title string    `json:"title,omitempty"`
	Root  *TreeNode `json:"root"`
}

// Kind implements Payload.
func (*Tree) Kind() Kind { return KindTree }

// Note is a prose payload: the legacy renderings' free-form commentary
// lines (headers, paper comparisons, reading guides), one line per entry.
type Note struct {
	Name  string   `json:"name"`
	Lines []string `json:"lines"`
}

// Kind implements Payload.
func (*Note) Kind() Kind { return KindNote }

// NoteLine builds a single-line Note.
func NoteLine(name, line string) *Note { return &Note{Name: name, Lines: []string{line}} }
