package mstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
// FuzzGet: two workloads, so an entry is small enough to fuzz quickly.
func entryInputs() ([]workload.Profile, *machine.Config, sim.Options) {
	return workload.DotNetCategories()[:2], machine.CoreI9(), sim.Options{Instructions: 3000}
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
	edit := func(f func(e *entry)) []byte {
		var e entry
		if err := json.Unmarshal(valid, &e); err != nil {
			t.Fatal(err)
		}
		f(&e)
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return []entryShape{
		{"valid", valid, true},
		{"truncated", valid[:len(valid)/2], false},
		{"version-2", edit(func(e *entry) { e.Version = 2 }), false},
		{"wrong-key", edit(func(e *entry) { e.Key = otherKey }), false},
		{"wrong-count", edit(func(e *entry) { e.Measurements = e.Measurements[:1] }), false},
		{"empty-record", edit(func(e *entry) { e.Measurements[0] = rec{} }), false},
		{"counters-and-error", edit(func(e *entry) { e.Measurements[0].Err = "boom" }), false},
		{"zero-instructions", edit(func(e *entry) { e.Measurements[0].Counters.Instructions = 0 }), false},
		{"rejected-slots", edit(func(e *entry) { e.Measurements[0].Counters.Slots.BadSpec = -1 }), false},
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
// one of a result and an error.
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
	})
}
