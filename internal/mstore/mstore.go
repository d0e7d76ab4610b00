// Package mstore is a content-addressed, on-disk measurement store: the
// persistence layer of the fast measurement pipeline. Suite measurements
// are keyed by a canonical SHA-256 hash over their complete inputs — the
// workload profiles, the machine configuration, the simulation options and
// the store format version — so a warm store answers a repeated
// measurement request byte-for-byte identically without re-simulating,
// while any change to a profile, machine model, option or to the
// serialization format changes the key and transparently invalidates the
// entry.
//
// Layout: one JSON file per suite measurement, dir/<hex key>.json, written
// atomically (temp file + rename) so concurrent processes sharing a store
// directory never observe torn entries. An entry holds, per workload, only
// what its key does not determine: the run's merged counters and samples,
// or its error message. The workload and machine are key inputs and the
// Top-Down profile and metric vector are functions of the counters, so a
// read rebuilds each measurement through the code a fresh run uses
// (sim.NewResult, core.Derive).
//
// Corrupt or unreadable entries are treated as misses; an entry is
// corrupt when it does not parse, names another key or format version,
// holds the wrong number of records, or holds a record that does not
// re-derive. No failure is silent: every degraded path counts
// into the store's obs.Trace (mstore.corrupt, mstore.errors,
// mstore.put_errors) and warns once per failure class on the log writer
// (stderr by default), so a store that has quietly stopped caching is
// visible instead of just slow.
package mstore

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

// FormatVersion stamps every key. Bump it whenever the serialized shape of
// a measurement (or the meaning of any keyed input) changes: old entries
// then hash to different keys and are simply never read again.
// Version 2: workload.Suite became a string (suite-spec registry), so
// profiles serialize differently inside the key envelope.
// Version 3: an entry stores only each workload's counters, samples and
// error; reads re-derive the rest.
const FormatVersion = 3

// Store is an on-disk core.MeasurementCache rooted at a directory.
type Store struct {
	dir string

	// Obs, when set, counts store traffic (mstore.hits, mstore.misses,
	// mstore.corrupt, mstore.errors, mstore.puts, mstore.put_errors) and
	// times it (mstore.get.hit.latency, mstore.get.miss.latency,
	// mstore.put.latency histograms). Nil-safe; assign before first use.
	Obs *obs.Trace

	// Log receives one warning line per failure class (corrupt entry, read
	// error, write error). Defaults to os.Stderr; tests override it.
	Log io.Writer

	warnMu sync.Mutex
	warned map[string]bool
}

var _ core.MeasurementCache = (*Store)(nil)

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("mstore: %w", err)
	}
	return &Store{dir: dir, Log: os.Stderr}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// warnOnce logs one line for the first failure of each class; repeats are
// only counted. A cold store under a read-only disk would otherwise spam
// one warning per suite.
func (s *Store) warnOnce(class, format string, args ...any) {
	s.warnMu.Lock()
	defer s.warnMu.Unlock()
	if s.warned == nil {
		s.warned = make(map[string]bool)
	}
	if s.warned[class] {
		return
	}
	s.warned[class] = true
	w := s.Log
	if w == nil {
		w = os.Stderr
	}
	//charnet:ignore errdiscard diagnostics on the log writer are best-effort
	fmt.Fprintf(w, "charnet: mstore: "+format+" (further %s warnings suppressed)\n", append(args, class)...)
}

// keyEnvelope is the canonical keyed-input serialization. Field order is
// fixed by the struct definition and encoding/json is deterministic for
// these shapes (no maps), so equal inputs always produce equal bytes.
type keyEnvelope struct {
	Version  int
	Profiles []workload.Profile
	Machine  *machine.Config
	Options  sim.Options
}

// Key returns the content hash naming the measurement of ps on m under
// opts, as a hex string.
func Key(ps []workload.Profile, m *machine.Config, opts sim.Options) (string, error) {
	b, err := json.Marshal(keyEnvelope{
		Version:  FormatVersion,
		Profiles: ps,
		Machine:  m,
		Options:  opts,
	})
	if err != nil {
		return "", fmt.Errorf("mstore: keying: %w", err)
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// rec is the stored form of one core.Measurement: the merged counters and
// samples of a successful run, or the error of a failed one. Err does not
// round-trip as an error value, so it is stored as its message; consumers
// of cached measurements only nil-check or print measurement errors.
type rec struct {
	Counters *sim.Counters `json:",omitempty"`
	Samples  []sim.Sample  `json:",omitempty"`
	Err      string        `json:",omitempty"`
}

// measurement rebuilds the measurement of p on m from its record. It
// fails, making the entry corrupt, unless the record holds either an
// error alone or counters that re-derive into a successful measurement,
// which is all Put ever writes.
func (r *rec) measurement(p workload.Profile, m *machine.Config) (core.Measurement, bool) {
	if r.Err != "" {
		return core.Measurement{Workload: p, Err: errors.New(r.Err)}, r.Counters == nil && r.Samples == nil
	}
	if r.Counters == nil {
		return core.Measurement{}, false
	}
	res, err := sim.NewResult(p, m, *r.Counters, r.Samples)
	if err != nil {
		return core.Measurement{}, false
	}
	ms := core.Derive(res)
	return ms, ms.Err == nil
}

// entry is the on-disk file body.
type entry struct {
	Version      int
	Key          string
	Measurements []rec
}

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".json")
}

// Get returns the stored measurements for the given inputs, or (nil,
// false) on any miss. Absent, unreadable and corrupt entries all mean
// "measure", but are counted apart: a plain absent file is an expected
// miss, an IO error or a corrupt entry is a degraded store.
func (s *Store) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) (_ []core.Measurement, hit bool) {
	start := s.Obs.Now()
	defer func() {
		name := "mstore.get.miss.latency"
		if hit {
			name = "mstore.get.hit.latency"
		}
		s.Obs.Observe(name, s.Obs.Now().Sub(start))
	}()
	key, err := Key(ps, m, opts)
	if err != nil {
		s.Obs.Add("mstore.errors", 1)
		s.warnOnce("key", "cannot key measurement request: %v", err)
		return nil, false
	}
	b, err := os.ReadFile(s.path(key))
	if errors.Is(err, fs.ErrNotExist) {
		s.Obs.Add("mstore.misses", 1)
		return nil, false
	}
	if err != nil {
		s.Obs.Add("mstore.errors", 1)
		s.warnOnce("read", "cannot read entry %s: %v", key, err)
		return nil, false
	}
	ms, ok := decode(b, key, ps, m)
	if !ok {
		s.Obs.Add("mstore.corrupt", 1)
		s.warnOnce("corrupt", "corrupt entry %s: treating as miss", key)
		return nil, false
	}
	s.Obs.Add("mstore.hits", 1)
	return ms, true
}

// decode parses the entry file b stored under key and rebuilds its
// measurements of ps on m, or reports the entry corrupt.
func decode(b []byte, key string, ps []workload.Profile, m *machine.Config) ([]core.Measurement, bool) {
	var e entry
	if json.Unmarshal(b, &e) != nil || e.Version != FormatVersion ||
		e.Key != key || len(e.Measurements) != len(ps) {
		return nil, false
	}
	ms := make([]core.Measurement, len(ps))
	for i := range e.Measurements {
		var ok bool
		if ms[i], ok = e.Measurements[i].measurement(ps[i], m); !ok {
			return nil, false
		}
	}
	return ms, true
}

// Put stores the measurements under the key of their inputs, atomically.
// A failed write only costs a future re-measurement, so Put returns
// nothing — but failures are counted (mstore.put_errors) and warned once,
// because a store that never lands a write is a disabled cache.
func (s *Store) Put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []core.Measurement) {
	start := s.Obs.Now()
	defer func() { s.Obs.Observe("mstore.put.latency", s.Obs.Now().Sub(start)) }()
	if err := s.put(ps, m, opts, ms); err != nil {
		s.Obs.Add("mstore.put_errors", 1)
		s.warnOnce("write", "cannot store measurement: %v", err)
		return
	}
	s.Obs.Add("mstore.puts", 1)
}

func (s *Store) put(ps []workload.Profile, m *machine.Config, opts sim.Options, ms []core.Measurement) error {
	key, err := Key(ps, m, opts)
	if err != nil {
		return err
	}
	recs := make([]rec, len(ms))
	for i, mm := range ms {
		switch {
		case mm.Err != nil:
			recs[i].Err = mm.Err.Error()
		case mm.Result != nil:
			recs[i] = rec{Counters: &mm.Result.Counters, Samples: mm.Result.Samples}
		default:
			return fmt.Errorf("measurement %d (%s) has neither a result nor an error", i, mm.Workload.Name)
		}
	}
	b, err := json.Marshal(entry{Version: FormatVersion, Key: key, Measurements: recs})
	if err != nil {
		return fmt.Errorf("marshal entry %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		return fmt.Errorf("create temp for %s: %w", key, err)
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr == nil && cerr == nil {
		if rerr := os.Rename(tmp.Name(), s.path(key)); rerr == nil {
			return nil
		} else {
			werr = rerr
		}
	} else if werr == nil {
		werr = cerr
	}
	//charnet:ignore errdiscard best-effort cleanup of a temp file that failed to land
	os.Remove(tmp.Name())
	return fmt.Errorf("write entry %s: %w", key, werr)
}
