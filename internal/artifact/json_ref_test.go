package artifact

import (
	"encoding/json"
	"io"
	"math"
)

// This file keeps the encoding/json implementation WriteJSON replaced,
// verbatim, as the reference its direct encoder must match byte for byte
// (TestWriteJSONMatchesReference, FuzzWriteJSON). The MarshalJSON methods
// exist only in test builds.

// writeJSONReference emits the artifacts as one indented JSON array. Every
// payload is wrapped in a {"kind": ..., "data": ...} envelope so consumers
// can dispatch without probing field names, and non-finite numbers are
// encoded as null (JSON has no NaN/Inf; CheckJSON enforces that
// none leak in any other form).
func writeJSONReference(w io.Writer, arts []*Artifact) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(arts)
}

// MarshalJSON wraps each payload in its kind envelope.
func (a *Artifact) MarshalJSON() ([]byte, error) {
	type envelope struct {
		Kind Kind    `json:"kind"`
		Data Payload `json:"data"`
	}
	envs := make([]envelope, len(a.Payloads))
	for i, p := range a.Payloads {
		envs[i] = envelope{Kind: p.Kind(), Data: p}
	}
	return json.Marshal(struct {
		Name     string     `json:"name"`
		Title    string     `json:"title"`
		Paper    string     `json:"paper,omitempty"`
		Payloads []envelope `json:"payloads"`
	}{a.Name, a.Title, a.Paper, envs})
}

// MarshalJSON encodes numeric cells as bare numbers (null when
// non-finite) and text cells as strings: consumers get full-precision
// values without the text renderer's rounding.
func (v Value) MarshalJSON() ([]byte, error) {
	if !v.IsNum {
		return json.Marshal(v.Text)
	}
	return jsonFloat(v.Num).MarshalJSON()
}

// jsonFloat marshals non-finite values as null: a structured consumer
// should see an explicit missing value rather than an encoding error.
type jsonFloat float64

// MarshalJSON implements the null-for-non-finite encoding.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// MarshalJSON guards Series values against non-finite leaks.
func (s *Series) MarshalJSON() ([]byte, error) {
	vals := make([][]jsonFloat, len(s.Values))
	for i, row := range s.Values {
		r := make([]jsonFloat, len(row))
		for j, v := range row {
			r[j] = jsonFloat(v)
		}
		vals[i] = r
	}
	return json.Marshal(struct {
		Name     string        `json:"name"`
		Title    string        `json:"title,omitempty"`
		Unit     string        `json:"unit,omitempty"`
		Labels   []string      `json:"labels"`
		Segments []string      `json:"segments"`
		Values   [][]jsonFloat `json:"values"`
		Width    int           `json:"width,omitempty"`
		Stacked  bool          `json:"stacked,omitempty"`
	}{s.Name, s.Title, s.Unit, s.Labels, s.Segments, vals, s.Width, s.Stacked})
}

// MarshalJSON guards scatter coordinates against non-finite leaks.
func (g ScatterGroup) MarshalJSON() ([]byte, error) {
	pts := make([][2]jsonFloat, len(g.Points))
	for i, p := range g.Points {
		pts[i] = [2]jsonFloat{jsonFloat(p[0]), jsonFloat(p[1])}
	}
	return json.Marshal(struct {
		Name   string         `json:"name"`
		Glyph  string         `json:"glyph"`
		Points [][2]jsonFloat `json:"points"`
	}{g.Name, g.Glyph, pts})
}
