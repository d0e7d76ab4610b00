package artifact

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CheckJSON validates one JSON artifact array against the schema the
// WriteJSON renderer promises. `charnet-check artifact` runs it, and the
// serving tests share it to hold HTTP response bodies to exactly the
// schema the CLI output is held to.
//
// Checks:
//
//   - the input is one valid JSON array of artifacts and nothing else
//   - artifact names are non-empty and unique; payload names are
//     non-empty and unique within their artifact
//   - every payload kind is in the published vocabulary (Kinds)
//   - per-kind shape: table rows match the column count, series values
//     match labels×segments, scatter groups carry single-glyph 2-D
//     points, trees have a root, notes have lines
//   - no NaN/Inf leaks: non-finite numbers must arrive as JSON null
//     (the sanctioned missing-value encoding), never as strings
//
// It returns the artifact and payload counts plus every violation found.
// An empty problems slice means the document is valid.
func CheckJSON(r io.Reader) (nArts, nPayloads int, problems []string) {
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	dec := json.NewDecoder(r)
	var arts []artifactDoc
	if err := dec.Decode(&arts); err != nil {
		return 0, 0, []string{fmt.Sprintf("input is not a JSON artifact array: %v", err)}
	}
	if dec.More() {
		bad("trailing data after the artifact array")
	}
	if len(arts) == 0 {
		bad("empty artifact array")
	}

	known := map[string]bool{}
	for _, k := range Kinds() {
		known[string(k)] = true
	}

	seenArt := map[string]bool{}
	for i, a := range arts {
		where := fmt.Sprintf("artifact %d (%q)", i, a.Name)
		if a.Name == "" {
			bad("%s: empty name", where)
		}
		if seenArt[a.Name] {
			bad("%s: duplicate artifact name", where)
		}
		seenArt[a.Name] = true
		if a.Title == "" {
			bad("%s: empty title", where)
		}
		if len(a.Payloads) == 0 {
			bad("%s: no payloads", where)
		}
		seenPay := map[string]bool{}
		for j, p := range a.Payloads {
			pwhere := fmt.Sprintf("%s payload %d", where, j)
			if !known[p.Kind] {
				bad("%s: unknown kind %q (vocabulary: %v)", pwhere, p.Kind, Kinds())
				continue
			}
			name := checkPayloadDoc(p, pwhere, bad)
			if name == "" {
				bad("%s: empty payload name", pwhere)
			} else if seenPay[name] {
				bad("%s: duplicate payload name %q", pwhere, name)
			}
			seenPay[name] = true
			nPayloads++
		}
	}
	return len(arts), nPayloads, problems
}

type payloadDoc struct {
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

type artifactDoc struct {
	Name     string       `json:"name"`
	Title    string       `json:"title"`
	Payloads []payloadDoc `json:"payloads"`
}

// checkPayloadDoc shape-checks one payload and returns its name.
func checkPayloadDoc(p payloadDoc, where string, bad func(string, ...any)) string {
	switch p.Kind {
	case "table":
		var t struct {
			Name    string `json:"name"`
			Columns []struct {
				Name string `json:"name"`
			} `json:"columns"`
			Rows [][]any `json:"rows"`
		}
		if err := json.Unmarshal(p.Data, &t); err != nil {
			bad("%s: malformed table: %v", where, err)
			return ""
		}
		if len(t.Columns) == 0 {
			bad("%s: table %q has no columns", where, t.Name)
		}
		for r, row := range t.Rows {
			if len(row) != len(t.Columns) {
				bad("%s: table %q row %d has %d cells for %d columns", where, t.Name, r, len(row), len(t.Columns))
			}
			for c, cell := range row {
				checkCellValue(cell, fmt.Sprintf("%s: table %q cell (%d,%d)", where, t.Name, r, c), bad)
			}
		}
		return t.Name
	case "series":
		var s struct {
			Name     string   `json:"name"`
			Labels   []string `json:"labels"`
			Segments []string `json:"segments"`
			Values   [][]any  `json:"values"`
		}
		if err := json.Unmarshal(p.Data, &s); err != nil {
			bad("%s: malformed series: %v", where, err)
			return ""
		}
		if len(s.Values) != len(s.Labels) {
			bad("%s: series %q has %d value rows for %d labels", where, s.Name, len(s.Values), len(s.Labels))
		}
		for r, row := range s.Values {
			if len(row) != len(s.Segments) {
				bad("%s: series %q row %d has %d values for %d segments", where, s.Name, r, len(row), len(s.Segments))
			}
			for c, v := range row {
				checkCellValue(v, fmt.Sprintf("%s: series %q value (%d,%d)", where, s.Name, r, c), bad)
			}
		}
		return s.Name
	case "scatter":
		var s struct {
			Name   string `json:"name"`
			Rows   int    `json:"rows"`
			Cols   int    `json:"cols"`
			Groups []struct {
				Name   string  `json:"name"`
				Glyph  string  `json:"glyph"`
				Points [][]any `json:"points"`
			} `json:"groups"`
		}
		if err := json.Unmarshal(p.Data, &s); err != nil {
			bad("%s: malformed scatter: %v", where, err)
			return ""
		}
		if s.Rows <= 0 || s.Cols <= 0 {
			bad("%s: scatter %q has non-positive grid %dx%d", where, s.Name, s.Rows, s.Cols)
		}
		if len(s.Groups) == 0 {
			bad("%s: scatter %q has no groups", where, s.Name)
		}
		for _, g := range s.Groups {
			if len(g.Glyph) != 1 {
				bad("%s: scatter %q group %q glyph %q is not one character", where, s.Name, g.Name, g.Glyph)
			}
			for i, pt := range g.Points {
				if len(pt) != 2 {
					bad("%s: scatter %q group %q point %d has %d coordinates", where, s.Name, g.Name, i, len(pt))
					continue
				}
				for _, v := range pt {
					checkCellValue(v, fmt.Sprintf("%s: scatter %q group %q point %d", where, s.Name, g.Name, i), bad)
				}
			}
		}
		return s.Name
	case "tree":
		var t struct {
			Name string          `json:"name"`
			Root json.RawMessage `json:"root"`
		}
		if err := json.Unmarshal(p.Data, &t); err != nil {
			bad("%s: malformed tree: %v", where, err)
			return ""
		}
		if len(t.Root) == 0 || string(t.Root) == "null" {
			bad("%s: tree %q has no root", where, t.Name)
		}
		return t.Name
	case "note":
		var n struct {
			Name  string   `json:"name"`
			Lines []string `json:"lines"`
		}
		if err := json.Unmarshal(p.Data, &n); err != nil {
			bad("%s: malformed note: %v", where, err)
			return ""
		}
		if len(n.Lines) == 0 {
			bad("%s: note %q has no lines", where, n.Name)
		}
		return n.Name
	}
	return ""
}

// checkCellValue rejects string-smuggled non-finite values. A numeric cell
// arrives as a JSON number (finite by construction) or as null, the
// renderer's sanctioned missing-value encoding; a "NaN"/"Inf" string
// means a formatter leaked a non-finite float into text.
func checkCellValue(v any, where string, bad func(string, ...any)) {
	s, ok := v.(string)
	if !ok {
		return
	}
	switch strings.TrimPrefix(strings.TrimPrefix(s, "+"), "-") {
	case "NaN", "nan", "Inf", "inf", "Infinity":
		bad("%s: non-finite value leaked as string %q (want JSON null)", where, s)
	}
}
