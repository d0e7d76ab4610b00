package mstore

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// builtin returns a built-in suite by wire name.
func builtin(wire string) *workload.SuiteDef {
	def, ok := workload.Builtin().Lookup(wire)
	if !ok {
		panic("no built-in suite " + wire)
	}
	return def
}

func testInputs() ([]workload.Profile, *machine.Config, sim.Options) {
	ps := builtin("dotnet").Profiles()[:6]
	return ps, machine.CoreI9(), sim.Options{Instructions: 3000}
}

// measure runs core.MeasureSuite under a background context, which
// cannot fail; a nil cache measures uncached.
func measure(t *testing.T, cache core.MeasurementCache, workers int) []core.Measurement {
	t.Helper()
	ps, m, opts := testInputs()
	ms, err := core.MeasureSuite(context.Background(), cache, ps, m, opts, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// render is the measurements' one output: the measure artifact as JSON,
// the bytes `charnet -format json export` and POST /v1/measure emit.
func render(t *testing.T, ms []core.Measurement) []byte {
	t.Helper()
	_, m, _ := testInputs()
	var b bytes.Buffer
	if err := artifact.WriteJSON(&b, []*artifact.Artifact{experiments.MeasureArtifact("dotnet", m, ms)}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestKeyStability(t *testing.T) {
	ps, m, opts := testInputs()
	k1, err := Key(ps, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key(ps, m, opts)
	if k1 != k2 {
		t.Fatalf("equal inputs produced different keys: %s vs %s", k1, k2)
	}
	// Any keyed input change must change the key.
	o2 := opts
	o2.Instructions++
	if k3, _ := Key(ps, m, o2); k3 == k1 {
		t.Fatal("option change did not change the key")
	}
	m2 := *m
	m2.L3.SizeBytes *= 2
	if k4, _ := Key(ps, &m2, opts); k4 == k1 {
		t.Fatal("machine change did not change the key")
	}
	if k5, _ := Key(ps[:5], m, opts); k5 == k1 {
		t.Fatal("profile change did not change the key")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	ps, m, opts := testInputs()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	ms := measure(t, nil, 0)
	s.Put(ps, m, opts, ms)
	got, ok := s.Get(ps, m, opts)
	if !ok {
		t.Fatal("store missed just-stored measurements")
	}
	if len(got) != len(ms) {
		t.Fatalf("got %d measurements, want %d", len(got), len(ms))
	}
	for i := range ms {
		if got[i].Workload.Name != ms[i].Workload.Name {
			t.Fatalf("[%d] workload %q != %q", i, got[i].Workload.Name, ms[i].Workload.Name)
		}
		if got[i].Vector != ms[i].Vector {
			t.Fatalf("[%d] vector changed across round-trip", i)
		}
		if (got[i].Err == nil) != (ms[i].Err == nil) {
			t.Fatalf("[%d] error presence changed across round-trip", i)
		}
		if !reflect.DeepEqual(got[i].Result, ms[i].Result) {
			t.Fatalf("[%d] result changed across round-trip", i)
		}
	}
	// The rendered measure artifact must be byte-identical too.
	if !bytes.Equal(render(t, got), render(t, ms)) {
		t.Fatal("cached measurements render a different measure artifact")
	}
}

// TestMeasureEquivalence is the pipeline's determinism contract made
// explicit: one worker, many workers and a warm store must produce
// identical measurements — same ordering, same vectors, deeply equal
// results, same measure-artifact bytes.
func TestMeasureEquivalence(t *testing.T) {
	serial := measure(t, nil, 1)
	parallel := measure(t, nil, 8)

	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := measure(t, s, 0) // cold: measures and stores
	warm := measure(t, s, 0)  // warm: served from disk

	ref := render(t, serial)
	for name, ms := range map[string][]core.Measurement{
		"parallel": parallel, "cold-cached": first, "warm-cached": warm,
	} {
		if len(ms) != len(serial) {
			t.Fatalf("%s: %d measurements, want %d", name, len(ms), len(serial))
		}
		for i := range ms {
			if ms[i].Workload.Name != serial[i].Workload.Name {
				t.Fatalf("%s[%d]: ordering differs: %q vs %q", name, i, ms[i].Workload.Name, serial[i].Workload.Name)
			}
			if ms[i].Vector != serial[i].Vector {
				t.Fatalf("%s[%d] (%s): vector differs from serial run", name, i, ms[i].Workload.Name)
			}
			if !reflect.DeepEqual(ms[i].Result, serial[i].Result) {
				t.Fatalf("%s[%d] (%s): result differs from serial run", name, i, ms[i].Workload.Name)
			}
		}
		if !bytes.Equal(render(t, ms), ref) {
			t.Fatalf("%s: measure-artifact bytes differ from serial run", name)
		}
	}
}

// TestObsCountersAndWarnings pins the error-surfacing contract: degraded
// store paths count into the trace and warn exactly once per class.
func TestObsCountersAndWarnings(t *testing.T) {
	ps, m, opts := testInputs()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	tr := obs.New()
	s.Obs, s.Log = tr, &log

	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	if got := tr.Counter("mstore.misses"); got != 1 {
		t.Fatalf("mstore.misses = %d, want 1", got)
	}
	if log.Len() != 0 {
		t.Fatalf("a plain miss must not warn, got %q", log.String())
	}

	ms := measure(t, nil, 0)
	s.Put(ps, m, opts, ms)
	if got := tr.Counter("mstore.puts"); got != 1 {
		t.Fatalf("mstore.puts = %d, want 1", got)
	}
	if _, ok := s.Get(ps, m, opts); !ok {
		t.Fatal("store missed just-stored measurements")
	}
	if got := tr.Counter("mstore.hits"); got != 1 {
		t.Fatalf("mstore.hits = %d, want 1", got)
	}

	// Corrupt the entry: two reads must count twice but warn once.
	key, _ := Key(ps, m, opts)
	if err := os.WriteFile(filepath.Join(s.Dir(), key+".json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s.Get(ps, m, opts); ok {
			t.Fatal("corrupt entry should read as a miss")
		}
	}
	if got := tr.Counter("mstore.corrupt"); got != 2 {
		t.Fatalf("mstore.corrupt = %d, want 2", got)
	}
	if got := strings.Count(log.String(), "corrupt entry"); got != 1 {
		t.Fatalf("corrupt warning emitted %d times, want once:\n%s", got, log.String())
	}

	// A store rooted at an unwritable path counts put errors and warns.
	ro := t.TempDir()
	if err := os.Chmod(ro, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(ro, 0o755) })
	s2 := &Store{dir: ro, Obs: tr, Log: &log}
	before := log.String()
	s2.Put(ps, m, opts, ms)
	s2.Put(ps, m, opts, ms)
	if os.Getuid() == 0 {
		t.Skip("running as root: read-only directory does not fail writes")
	}
	if got := tr.Counter("mstore.put_errors"); got != 2 {
		t.Fatalf("mstore.put_errors = %d, want 2", got)
	}
	if got := strings.Count(log.String()[len(before):], "cannot store"); got != 1 {
		t.Fatalf("write warning emitted %d times, want once", got)
	}
}

// TestPutRejectsEmptyMeasurement: a measurement with neither a result nor
// an error has nothing to store, so Put counts a put error and writes no
// entry.
func TestPutRejectsEmptyMeasurement(t *testing.T) {
	ps, m, opts := testInputs()
	tr := obs.New()
	s := &Store{dir: t.TempDir(), Obs: tr, Log: io.Discard}
	ms := measure(t, nil, 0)
	ms[2] = core.Measurement{Workload: ps[2]}
	s.Put(ps, m, opts, ms)
	if got := tr.Counter("mstore.put_errors"); got != 1 {
		t.Fatalf("mstore.put_errors = %d, want 1", got)
	}
	if got := tr.Counter("mstore.puts"); got != 0 {
		t.Fatalf("mstore.puts = %d, want 0", got)
	}
	if _, ok := s.Get(ps, m, opts); ok || tr.Counter("mstore.misses") != 1 {
		t.Fatal("a rejected put left an entry behind")
	}
}

// TestPutRejectsUnreadableMeasurements: Put counts a put error and
// writes no entry for a measurement Get would reject: a float that is
// not finite, in the counters or a sample, or an error with an empty
// message.
func TestPutRejectsUnreadableMeasurements(t *testing.T) {
	ps, m, opts := testInputs()
	opts.SampleInterval = 2000
	for _, tc := range []struct {
		name  string
		spoil func(ms []core.Measurement)
	}{
		{"nan-counter", func(ms []core.Measurement) { ms[1].Result.Counters.Cycles = math.NaN() }},
		{"inf-sample", func(ms []core.Measurement) { ms[1].Result.Samples[0].CycleEnd = math.Inf(1) }},
		{"empty-message", func(ms []core.Measurement) { ms[1] = core.Measurement{Workload: ps[1], Err: errors.New("")} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := core.MeasureSuite(context.Background(), nil, ps, m, opts, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ms[1].Result.Samples) == 0 {
				t.Fatalf("measuring %s took no samples", ps[1].Name)
			}
			tc.spoil(ms)
			tr := obs.New()
			s := &Store{dir: t.TempDir(), Obs: tr, Log: io.Discard}
			s.Put(ps, m, opts, ms)
			if got := tr.Counter("mstore.put_errors"); got != 1 {
				t.Fatalf("mstore.put_errors = %d, want 1", got)
			}
			if _, ok := s.Get(ps, m, opts); ok || tr.Counter("mstore.misses") != 1 {
				t.Fatal("a rejected put left an entry behind")
			}
		})
	}
}

// TestNilObsAndLogAreSafe verifies an un-instrumented store still works and
// warns to stderr-by-default without panicking.
func TestNilObsAndLogAreSafe(t *testing.T) {
	ps, m, opts := testInputs()
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("empty store reported a hit")
	}
	key, _ := Key(ps, m, opts)
	if err := os.WriteFile(filepath.Join(s.dir, key+".json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(ps, m, opts); ok {
		t.Fatal("corrupt entry should read as a miss")
	}
}
