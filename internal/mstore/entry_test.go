package mstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// entryInputs are the fixed inputs of the entry-decoding tests and of
// FuzzGet: two workloads, so an entry is small enough to fuzz quickly,
// sampled so that the measured one's record holds samples.
func entryInputs() ([]workload.Profile, *machine.Config, sim.Options) {
	return workload.DotNetCategories()[:2], machine.CoreI9(), sim.Options{Instructions: 3000, SampleInterval: 2000}
}

// entryShape is one entry file body for entryInputs and whether Get
// serves it.
type entryShape struct {
	name string
	body []byte
	hit  bool
}

// entryShapes returns the valid entry for entryInputs, holding one
// measured workload and one failed one, followed by each way an entry
// can be corrupt.
func entryShapes(t testing.TB) []entryShape {
	t.Helper()
	ps, m, opts := entryInputs()
	ms, err := core.MeasureSuite(context.Background(), nil, ps, m, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ms[0].Err != nil {
		t.Fatalf("measuring %s: %v", ps[0].Name, ms[0].Err)
	}
	if len(ms[0].Result.Samples) == 0 {
		t.Fatalf("measuring %s took no samples", ps[0].Name)
	}
	ms[1] = core.Measurement{Workload: ps[1], Err: errors.New("clr: OutOfMemory")}
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	s.Put(ps, m, opts, ms)
	key, err := Key(ps, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	other := opts
	other.Instructions++
	otherKey, err := Key(ps, m, other)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := entryBody(valid, key)
	if !ok {
		t.Fatal("the stored entry has no records body")
	}
	raw, err := b64.DecodeString(string(body))
	if err != nil {
		t.Fatal(err)
	}
	// The records: a count word, record 0 (counters) at offset 8, its
	// sample count after the counter words, then record 1 (an error).
	const rec0 = 8
	samples := rec0 + 1 + 8*len(counterWords)
	rec1 := samples + 8 + 8*len(sampleWords)*len(ms[0].Result.Samples)
	edit := func(f func(raw []byte) []byte) []byte {
		return entryFile(key, f(bytes.Clone(raw)))
	}
	setWord := func(off int, v uint64) []byte {
		return edit(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[off:], v)
			return raw
		})
	}
	counter := func(name string) int { // the named counter's offset in record 0
		for i, w := range counterWords {
			if w.name == name {
				return rec0 + 1 + 8*i
			}
		}
		t.Fatalf("no counter word %s", name)
		return 0
	}
	at := len(valid) - len(entryTail) - len(body) // where the body starts
	splice := func(i, drop int, with string) []byte {
		return append(append(bytes.Clone(valid[:i]), with...), valid[i+drop:]...)
	}
	var reindented bytes.Buffer
	if err := json.Indent(&reindented, valid, "", "  "); err != nil {
		t.Fatal(err)
	}
	return []entryShape{
		{"valid", valid, true},
		{"truncated", valid[:len(valid)/2], false},
		{"version-3", bytes.Replace(valid, []byte(`"Version":4`), []byte(`"Version":3`), 1), false},
		{"wrong-key", entryFile(otherKey, raw), false},
		{"wrong-count", edit(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw, 1)
			return raw[:rec1]
		}), false},
		{"zero-instructions", setWord(counter("Instructions"), 0), false},
		{"rejected-slots", setWord(counter("Slots.BadSpec"), math.Float64bits(-1)), false},
		{"unknown-kind", edit(func(raw []byte) []byte {
			raw[rec1] = 3
			return raw
		}), false},
		{"samples-past-end", setWord(samples, uint64(len(raw)-samples-8)/uint64(8*len(sampleWords))+1), false},
		{"trailing-bytes", edit(func(raw []byte) []byte { return append(raw, 0) }), false},
		{"nan-float", setWord(counter("Cycles"), math.Float64bits(math.NaN())), false},
		{"inf-float", setWord(counter("WallSeconds"), math.Float64bits(math.Inf(1))), false},
		// An error record with an empty message holds neither counters nor
		// an error.
		{"empty-record", edit(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[rec1+1:], 0)
			return raw[:rec1+9]
		}), false},
		{"invalid-base64", splice(at, 1, "!"), false},
		{"embedded-newline", splice(at+len(body)/2, 0, "\n"), false},
		{"reindented", reindented.Bytes(), false},
	}
}

// TestCorruptEntryIsAMiss writes each shape of entryShapes as the entry
// file: every corrupt one must read as a miss counted in mstore.corrupt,
// never as a hit, while the valid one hits.
func TestCorruptEntryIsAMiss(t *testing.T) {
	ps, m, opts := entryInputs()
	key, err := Key(ps, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range entryShapes(t) {
		t.Run(sh.name, func(t *testing.T) {
			tr := obs.New()
			s := &Store{dir: t.TempDir(), Obs: tr, Log: io.Discard}
			if err := os.WriteFile(s.path(key), sh.body, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(ps, m, opts); ok != sh.hit {
				t.Fatalf("Get hit = %v, want %v", ok, sh.hit)
			}
			wantHits, wantCorrupt := int64(0), int64(1)
			if sh.hit {
				wantHits, wantCorrupt = 1, 0
			}
			if got := tr.Counter("mstore.hits"); got != wantHits {
				t.Errorf("mstore.hits = %d, want %d", got, wantHits)
			}
			if got := tr.Counter("mstore.corrupt"); got != wantCorrupt {
				t.Errorf("mstore.corrupt = %d, want %d", got, wantCorrupt)
			}
		})
	}
}

// TestFuzzGetCorpusIsCurrent keeps FuzzGet's committed seed corpus equal
// to entryShapes, so its valid seed stays a hit and each corrupt seed
// stays the shape it is named after. Regenerate it with
// CHARNET_UPDATE_GOLDEN=1 go test ./internal/mstore.
func TestFuzzGetCorpusIsCurrent(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzGet")
	update := os.Getenv("CHARNET_UPDATE_GOLDEN") != ""
	for _, sh := range entryShapes(t) {
		file := filepath.Join(dir, sh.name)
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", sh.body)
		if update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("%s is stale; regenerate the corpus with CHARNET_UPDATE_GOLDEN=1 go test ./internal/mstore", file)
		}
	}
}

// FuzzGet writes arbitrary bytes as the entry file of entryInputs and
// reads it back. Get must never panic; it either misses or returns one
// measurement per workload, each of its own workload and holding exactly
// one of a result and an error, from exactly the bytes Put writes for
// those measurements.
func FuzzGet(f *testing.F) {
	ps, m, opts := entryInputs()
	key, err := Key(ps, m, opts)
	if err != nil {
		f.Fatal(err)
	}
	s := &Store{dir: f.TempDir(), Log: io.Discard}
	f.Fuzz(func(t *testing.T, b []byte) {
		if err := os.WriteFile(s.path(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		ms, ok := s.Get(ps, m, opts)
		if !ok {
			return
		}
		if len(ms) != len(ps) {
			t.Fatalf("hit returned %d measurements for %d workloads", len(ms), len(ps))
		}
		for i, mm := range ms {
			if mm.Workload != ps[i] {
				t.Fatalf("[%d] measurement of %q, want %q", i, mm.Workload.Name, ps[i].Name)
			}
			if (mm.Result == nil) == (mm.Err == nil) {
				t.Fatalf("[%d] result set = %v, error set = %v; want exactly one", i, mm.Result != nil, mm.Err != nil)
			}
		}
		if enc, err := encodeEntry(key, ms); err != nil || !bytes.Equal(enc, b) {
			t.Fatalf("Get served an entry Put would not write (re-encoding error %v)", err)
		}
	})
}
