package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
)

// WriteJSON emits the artifacts as one indented JSON array. Every payload
// is wrapped in a {"kind": ..., "data": ...} envelope so consumers can
// dispatch without probing field names, and non-finite numbers are
// encoded as null (JSON has no NaN/Inf; CheckJSON enforces that
// none leak in any other form). A non-finite tree distance is an error,
// and a failed call writes nothing.
//
// The encoder is direct: it walks the closed payload vocabulary and
// appends to one buffer. Its bytes are exactly those of encoding/json's
// Encoder with SetIndent("", "  ") over the same artifacts — field order,
// omitempty rules, null for nil slices, number formatting and string
// escaping — and TestWriteJSONMatchesReference and FuzzWriteJSON pin them
// against that implementation.
func WriteJSON(w io.Writer, arts []*Artifact) error {
	e := encoders.Get().(*jsonEncoder)
	defer encoders.Put(e)
	*e = jsonEncoder{buf: e.buf[:0]}
	if arts == nil {
		e.null()
	} else {
		e.open('[')
		for _, a := range arts {
			e.next()
			e.artifact(a)
			if e.err != nil {
				return fmt.Errorf("artifact %q: %w", a.Name, e.err)
			}
		}
		e.close(']')
	}
	e.buf = append(e.buf, '\n')
	_, err := w.Write(e.buf)
	return err
}

// encoders recycles encoder buffers across calls: a warm charnetd renders
// every filtered response and every driver body, and w.Write does not
// retain the bytes it is given.
var encoders = sync.Pool{New: func() any { return new(jsonEncoder) }}

// jsonEncoder appends indented JSON to buf. A container opens with open
// and ends with close; next starts each element or member on its own
// line, so a container that got none closes as [] or {}, as json.Indent
// leaves it. err holds the first value JSON cannot carry.
type jsonEncoder struct {
	buf   []byte
	depth int
	empty bool // the innermost open container has no element yet
	err   error
}

func (e *jsonEncoder) open(c byte) {
	e.buf = append(e.buf, c)
	e.depth++
	e.empty = true
}

func (e *jsonEncoder) next() {
	if !e.empty {
		e.buf = append(e.buf, ',')
	}
	e.empty = false
	e.newline()
}

func (e *jsonEncoder) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.empty = false
	e.buf = append(e.buf, c)
}

// indent is a newline and the indentation of the deepest level one
// append covers; deeper tree nodes extend it two spaces at a time.
const indent = "\n                                "

func (e *jsonEncoder) newline() {
	n := 1 + 2*e.depth
	if n <= len(indent) {
		e.buf = append(e.buf, indent[:n]...)
		return
	}
	e.buf = append(e.buf, indent...)
	for i := len(indent); i < n; i += 2 {
		e.buf = append(e.buf, "  "...)
	}
}

// field starts an object member; names are plain ASCII literals.
func (e *jsonEncoder) field(name string) {
	e.next()
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, name...)
	e.buf = append(e.buf, `": `...)
}

// optField appends a string member that omitempty drops when s is empty.
func (e *jsonEncoder) optField(name, s string) {
	if s != "" {
		e.field(name)
		e.str(s)
	}
}

func (e *jsonEncoder) null() { e.buf = append(e.buf, "null"...) }

func (e *jsonEncoder) int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// str appends s as a JSON string. Printable ASCII other than the
// characters encoding/json escapes is copied as it is; any other string
// is escaped by encoding/json itself, so the escaping rules (HTML
// characters, U+2028 and U+2029, control bytes, invalid UTF-8) stay the
// standard library's.
func (e *jsonEncoder) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			//charnet:ignore errdiscard a string always marshals
			b, _ := json.Marshal(s)
			e.buf = append(e.buf, b...)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// strs appends a string list, null when nil.
func (e *jsonEncoder) strs(ss []string) {
	if ss == nil {
		e.null()
		return
	}
	e.open('[')
	for _, s := range ss {
		e.next()
		e.str(s)
	}
	e.close(']')
}

// num appends f, or null when it is NaN or infinite.
func (e *jsonEncoder) num(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.null()
		return
	}
	e.buf = appendFloat(e.buf, f)
}

// nums appends a number list; like every float list of the vocabulary, a
// nil one is [] rather than null.
func (e *jsonEncoder) nums(fs []float64) {
	e.open('[')
	for _, f := range fs {
		e.next()
		e.num(f)
	}
	e.close(']')
}

// appendFloat formats a finite f as encoding/json does: 'f' notation,
// 'e' outside [1e-6, 1e21), and a one-digit negative exponent unpadded
// (1e-7, not 1e-07).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

func (e *jsonEncoder) artifact(a *Artifact) {
	if a == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(a.Name)
	e.field("title")
	e.str(a.Title)
	e.optField("paper", a.Paper)
	e.field("payloads")
	e.open('[')
	for _, p := range a.Payloads {
		e.next()
		e.open('{')
		e.field("kind")
		e.str(string(p.Kind()))
		e.field("data")
		p.renderJSON(e)
		e.close('}')
	}
	e.close(']')
	e.close('}')
}

func (t *Table) renderJSON(e *jsonEncoder) {
	if t == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(t.Name)
	e.optField("title", t.Title)
	e.field("columns")
	if t.Columns == nil {
		e.null()
	} else {
		e.open('[')
		for _, c := range t.Columns {
			e.next()
			e.open('{')
			e.field("name")
			e.str(c.Name)
			e.optField("unit", c.Unit)
			e.close('}')
		}
		e.close(']')
	}
	e.field("rows")
	if t.Rows == nil {
		e.null()
	} else {
		e.open('[')
		for _, row := range t.Rows {
			e.next()
			if row == nil {
				e.null()
				continue
			}
			e.open('[')
			for _, v := range row {
				e.next()
				if v.IsNum {
					e.num(v.Num)
				} else {
					e.str(v.Text)
				}
			}
			e.close(']')
		}
		e.close(']')
	}
	e.optField("style", t.Style)
	if t.Hidden {
		e.field("hidden")
		e.buf = append(e.buf, "true"...)
	}
	e.close('}')
}

func (s *Series) renderJSON(e *jsonEncoder) {
	if s == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(s.Name)
	e.optField("title", s.Title)
	e.optField("unit", s.Unit)
	e.field("labels")
	e.strs(s.Labels)
	e.field("segments")
	e.strs(s.Segments)
	e.field("values")
	e.open('[')
	for _, row := range s.Values {
		e.next()
		e.nums(row)
	}
	e.close(']')
	if s.Width != 0 {
		e.field("width")
		e.int(s.Width)
	}
	if s.Stacked {
		e.field("stacked")
		e.buf = append(e.buf, "true"...)
	}
	e.close('}')
}

func (s *Scatter) renderJSON(e *jsonEncoder) {
	if s == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(s.Name)
	e.optField("title", s.Title)
	e.field("rows")
	e.int(s.Rows)
	e.field("cols")
	e.int(s.Cols)
	e.field("groups")
	if s.Groups == nil {
		e.null()
	} else {
		e.open('[')
		for _, g := range s.Groups {
			e.next()
			e.open('{')
			e.field("name")
			e.str(g.Name)
			e.field("glyph")
			e.str(g.Glyph)
			e.field("points")
			e.open('[')
			for _, p := range g.Points {
				e.next()
				e.nums(p[:])
			}
			e.close(']')
			e.close('}')
		}
		e.close(']')
	}
	e.close('}')
}

func (t *Tree) renderJSON(e *jsonEncoder) {
	if t == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(t.Name)
	e.optField("title", t.Title)
	e.field("root")
	e.node(t.Root)
	e.close('}')
}

// node appends one dendrogram node and its subtree. Every member is
// omitempty, so a bare node is {}; a distance JSON cannot carry fails the
// encoding instead of turning into null.
func (e *jsonEncoder) node(n *TreeNode) {
	if n == nil {
		e.null()
		return
	}
	e.open('{')
	e.optField("label", n.Label)
	if n.Distance != 0 {
		if (math.IsNaN(n.Distance) || math.IsInf(n.Distance, 0)) && e.err == nil {
			e.err = fmt.Errorf("tree distance %v is not finite", n.Distance)
		}
		e.field("distance")
		e.buf = appendFloat(e.buf, n.Distance)
	}
	if n.Size != 0 {
		e.field("size")
		e.int(n.Size)
	}
	if n.Left != nil {
		e.field("left")
		e.node(n.Left)
	}
	if n.Right != nil {
		e.field("right")
		e.node(n.Right)
	}
	e.close('}')
}

func (n *Note) renderJSON(e *jsonEncoder) {
	if n == nil {
		e.null()
		return
	}
	e.open('{')
	e.field("name")
	e.str(n.Name)
	e.field("lines")
	e.strs(n.Lines)
	e.close('}')
}
