package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro/internal/artifact"
	"repro/internal/core"
)

// digests are the recorded SHA-256 digests every checked output is
// compared against. `perfbench --record` prints a fresh copy; a change to
// the program's output must re-record them in the same change.
type digests struct {
	// Drivers: each warm driver's text rendering at Quick fidelity, the
	// CLI default (`charnet <driver>`).
	Drivers map[string]string `json:"drivers"`
	// MicroSweep: the micro-sweep measurement vectors, by size.
	MicroSweep map[string]string `json:"micro_sweep"`
	// Serve: each serve-mix request template's response body, compacted,
	// by template key.
	Serve map[string]string `json:"serve"`
}

//go:embed digests.json
var digestsJSON []byte

func loadDigests() (digests, error) {
	var d digests
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return d, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

// check compares got with the digest recorded under key in table.
func check(kind string, table map[string]string, key, got string) error {
	want, ok := table[key]
	if !ok {
		return fmt.Errorf("%s %q: no recorded digest", kind, key)
	}
	if got != want {
		return fmt.Errorf("%s %q: output digest %.12s differs from the recorded %.12s", kind, key, got, want)
	}
	return nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// checkTexts renders each artifact as text (timed by p) and compares it
// with its driver's recorded digest.
func checkTexts(d digests, p *probe, arts []*artifact.Artifact) error {
	for _, a := range arts {
		if err := check("driver", d.Drivers, a.Name, digest([]byte(p.renderText(a)))); err != nil {
			return err
		}
	}
	return nil
}

// measurementDigest hashes measurement vectors and per-workload errors in
// order: the micro-sweep's output.
func measurementDigest(ms []core.Measurement) string {
	h := sha256.New()
	var buf [8]byte
	field := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
	}
	for _, m := range ms {
		field(m.Workload.Name)
		if m.Err != nil {
			field(m.Err.Error())
		} else {
			field("")
		}
		for _, v := range m.Vector {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// streamResult extracts the artifact array from a ?stream=jsonl response,
// whose last line must be the result event.
func streamResult(body []byte) ([]byte, error) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var ev struct {
		Event     string          `json:"event"`
		Error     string          `json:"error"`
		Artifacts json.RawMessage `json:"artifacts"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &ev); err != nil {
		return nil, fmt.Errorf("stream: last line: %w", err)
	}
	if ev.Event != "result" {
		return nil, fmt.Errorf("stream ended with event %q: %s", ev.Event, ev.Error)
	}
	return ev.Artifacts, nil
}

// bodies checks serve-mix responses. It keeps the first body of each
// request template, plain and streamed apart, so every identical request
// is compared byte for byte, and checks each first body against its
// recorded digest.
type bodies struct {
	table map[string]string
	mu    sync.Mutex
	refs  map[string][]byte // by template key, "+stream" for streamed
}

func newBodies(table map[string]string) *bodies {
	return &bodies{table: table, refs: map[string][]byte{}}
}

func (b *bodies) check(t template, stream bool, body []byte) error {
	key := t.key()
	if stream {
		var err error
		if body, err = streamResult(body); err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		key += "+stream"
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if ref, ok := b.refs[key]; ok {
		if !bytes.Equal(ref, body) {
			return fmt.Errorf("%s: body differs from an identical earlier request", key)
		}
		return nil
	}
	// The stream's artifacts are the plain body re-encoded compactly.
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if err := check("serve", b.table, t.key(), digest(compact.Bytes())); err != nil {
		return err
	}
	b.refs[key] = append([]byte(nil), body...)
	return nil
}
