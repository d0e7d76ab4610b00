package artifact

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

// demoArtifact is a representative artifact with one payload of each kind.
func demoArtifact() *Artifact {
	a := &Artifact{Name: "demo", Title: "a demo artifact", Paper: "test"}
	a.Add(
		&Table{
			Name:    "t",
			Columns: []Column{{Name: "workload"}, {Name: "ipc"}},
			Rows: [][]Value{
				{Str("System.Linq"), Number(1.25)},
				{Str("Json"), Number(0.75)},
			},
		},
		Bars("b", "bars", "x", []string{"a", "b"}, []float64{1, 2}, 10),
		&Scatter{Name: "s", Rows: 2, Cols: 2, Groups: []ScatterGroup{
			{Name: "g", Glyph: "*", Points: [][2]float64{{0, 1}}},
		}},
		&Tree{Name: "d", Root: &TreeNode{Label: "leaf"}},
		NoteLine("n", "a prose line"),
	)
	return a
}

// TestCheckJSONAcceptsRendererOutput: whatever WriteJSON emits for a
// representative artifact must validate cleanly — the checker and the
// renderer describe the same schema.
func TestCheckJSONAcceptsRendererOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Artifact{demoArtifact()}); err != nil {
		t.Fatal(err)
	}
	arts, payloads, problems := CheckJSON(&buf)
	if len(problems) != 0 {
		t.Fatalf("renderer output failed its own schema: %v", problems)
	}
	if arts != 1 || payloads != 5 {
		t.Fatalf("counted %d artifacts / %d payloads, want 1 / 5", arts, payloads)
	}
}

// badArtifacts are documents CheckJSON must reject, one per malformation
// class, each with a substring some problem must contain.
var badArtifacts = []struct {
	name string
	doc  string
	want string
}{
	{"not an array", `{"name":"x"}`, "not a JSON artifact array"},
	{"empty array", `[]`, "empty artifact array"},
	{"trailing data", `[{"name":"a","title":"t","payloads":[{"kind":"note","data":{"name":"n","lines":["x"]}}]}] []`, "trailing data"},
	{"empty artifact name", `[{"name":"","title":"t","payloads":[{"kind":"note","data":{"name":"n","lines":["x"]}}]}]`, "empty name"},
	{"unknown kind", `[{"name":"a","title":"t","payloads":[{"kind":"blob","data":{}}]}]`, "unknown kind"},
	{"ragged table", `[{"name":"a","title":"t","payloads":[{"kind":"table","data":{"name":"tb","columns":[{"name":"c"}],"rows":[["x","y"]]}}]}]`, "cells for"},
	{"nan string leak", `[{"name":"a","title":"t","payloads":[{"kind":"table","data":{"name":"tb","columns":[{"name":"c"}],"rows":[["NaN"]]}}]}]`, "non-finite"},
	{"rootless tree", `[{"name":"a","title":"t","payloads":[{"kind":"tree","data":{"name":"tr","root":null}}]}]`, "no root"},
	{"duplicate payloads", `[{"name":"a","title":"t","payloads":[{"kind":"note","data":{"name":"n","lines":["x"]}},{"kind":"note","data":{"name":"n","lines":["y"]}}]}]`, "duplicate payload"},
}

// TestCheckJSONRejects: each malformation class is reported.
func TestCheckJSONRejects(t *testing.T) {
	for _, tc := range badArtifacts {
		t.Run(tc.name, func(t *testing.T) {
			_, _, problems := CheckJSON(strings.NewReader(tc.doc))
			found := false
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("problems %v do not mention %q", problems, tc.want)
			}
		})
	}
}

// FuzzCheckJSON: the checker never panics on any input, gives the same
// counts and problems twice, and counts at least one artifact, and at
// least one payload per artifact, in every document it accepts.
func FuzzCheckJSON(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, []*Artifact{demoArtifact()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range badArtifacts {
		f.Add([]byte(tc.doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a1, n1, p1 := CheckJSON(bytes.NewReader(data))
		a2, n2, p2 := CheckJSON(bytes.NewReader(data))
		if a1 != a2 || n1 != n2 || !slices.Equal(p1, p2) {
			t.Fatalf("verdict changed between calls: %d/%d %q, then %d/%d %q", a1, n1, p1, a2, n2, p2)
		}
		if len(p1) == 0 && (a1 < 1 || n1 < a1) {
			t.Fatalf("accepted a document with %d artifacts and %d payloads", a1, n1)
		}
	})
}
