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
// Layout: one file per suite measurement, dir/<hex key>.json, written
// atomically (temp file + rename) so concurrent processes sharing a store
// directory never observe torn entries. An entry holds, per workload, only
// what its key does not determine: the run's merged counters and samples,
// or its error message. The workload and machine are key inputs and the
// Top-Down profile and metric vector are functions of the counters, so a
// read rebuilds each measurement through the code a fresh run uses
// (sim.NewResult, core.Derive).
//
// The file is one JSON object with fixed bytes around its key and
// records:
//
//	{"Version":4,"Key":"<hex key>","Records":"<base64>"}
//
// The records are fixed-layout little-endian words, base64-encoded
// (standard alphabet, padded): a record count, then one record per
// workload in order. A counters record is the byte 1, the fields of
// sim.Counters (topdown.Slots inlined) as 8-byte words in declaration
// order, a sample count and the fields of each sim.Sample the same way.
// Floats are stored as their IEEE 754 bits, ints as int64. An error
// record is the byte 2, a message length and the message; a read returns
// a message that is exactly the text of one of the simulator's sentinel
// errors (clr.ErrOutOfMemory, clr.ErrServerGCReserve) as that error, so
// errors.Is matches a stored failure as it matches a fresh one. Put
// writes these bytes directly and Get checks them directly; neither runs
// encoding/json.
//
// The key is the SHA-256 of one JSON envelope,
//
//	{"Version":4,"Profiles":[<profile>,...],"Machine":<machine>,"Options":<options>}
//
// each part as json.Marshal writes it (a nil profile list as null), so
// the bytes hashed are exactly json.Marshal of a struct with those four
// fields; the tests keep that struct as the reference every key must
// match. Key streams the envelope into the hash piece by piece.
// Marshalling the profiles, mostly formatting their floats, is most of
// what a key costs, so a Store also memoizes each profile's JSON by the
// profile's exact content: a memo hit compares every float by its bits,
// since -0 == +0 but the two encode differently. Keying a profile the
// store has keyed before then only hashes its bytes. The memo holds at
// most memoCap (16,384) profiles, more than the 3,023 of the built-in
// suites, and never one that fails to marshal (a NaN or an infinity).
//
// Corrupt or unreadable entries are treated as misses. An entry is
// corrupt unless its bytes are exactly what Put writes for its key: any
// other JSON, even one encoding/json would read the same, is corrupt, as
// is a body with bytes the base64 encoding does not produce (a newline,
// nonzero padding bits), a record count other than the number of
// workloads, a record of unknown kind, a length past the end of the
// records, trailing bytes, a float that is not finite, an empty error
// message, or counters that do not re-derive. Put refuses to write what
// Get would reject. No failure is silent: every degraded path counts
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
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
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
// Version 4: the records are fixed-layout words in base64, not JSON.
const FormatVersion = 4

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

	memo profileMemo
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

// The fixed pieces of the key envelope, which keyWith writes around the
// profiles, the machine and the options.
var (
	keyHead    = []byte(`{"Version":` + strconv.Itoa(FormatVersion) + `,"Profiles":`)
	keyNull    = []byte(`null`)
	keyOpen    = []byte(`[`)
	keyComma   = []byte(`,`)
	keyClose   = []byte(`]`)
	keyMachine = []byte(`,"Machine":`)
	keyOptions = []byte(`,"Options":`)
	keyTail    = []byte(`}`)
)

// Key returns the content hash naming the measurement of ps on m under
// opts, as a hex string: the SHA-256 of the key envelope (see the package
// doc), which it writes into the hash piece by piece. It keeps no memo;
// a Store keys through its own.
func Key(ps []workload.Profile, m *machine.Config, opts sim.Options) (string, error) {
	return keyWith(nil, ps, m, opts)
}

// keyWith is Key, taking each profile's JSON from memo when memo is set.
func keyWith(memo *profileMemo, ps []workload.Profile, m *machine.Config, opts sim.Options) (string, error) {
	h := sha256.New()
	write := func(b []byte) {
		//charnet:ignore errdiscard hash.Hash.Write is documented to never return an error
		h.Write(b)
	}
	write(keyHead)
	if ps == nil {
		write(keyNull)
	} else {
		write(keyOpen)
		for i := range ps {
			if i > 0 {
				write(keyComma)
			}
			b, err := memo.profileJSON(&ps[i])
			if err != nil {
				return "", fmt.Errorf("mstore: keying: %w", err)
			}
			write(b)
		}
		write(keyClose)
	}
	mb, err := json.Marshal(m)
	if err != nil {
		return "", fmt.Errorf("mstore: keying: %w", err)
	}
	ob, err := json.Marshal(opts)
	if err != nil {
		return "", fmt.Errorf("mstore: keying: %w", err)
	}
	write(keyMachine)
	write(mb)
	write(keyOptions)
	write(ob)
	write(keyTail)
	return hex.EncodeToString(h.Sum(nil)), nil
}

// memoCap bounds a Store's profile memo. The built-in suites hold 3,023
// profiles; a store keying more distinct ones than this keys the rest
// without the memo.
const memoCap = 16384

// profileMemo maps each profile a Store has keyed to its JSON. Its map is
// keyed by the profile's value, under which -0 and +0 are equal, so a hit
// also compares the float bits before it serves the JSON.
type profileMemo struct {
	mu sync.Mutex
	m  map[workload.Profile]memoProfile
}

type memoProfile struct {
	p    workload.Profile
	json []byte
}

// profileJSON returns json.Marshal(p), from the memo when it holds p and
// memo is not nil. A profile that fails to marshal is never memoized.
func (memo *profileMemo) profileJSON(p *workload.Profile) ([]byte, error) {
	if memo == nil {
		return json.Marshal(p)
	}
	memo.mu.Lock()
	e, ok := memo.m[*p]
	memo.mu.Unlock()
	if ok && sameFloatBits(&e.p, p) {
		return e.json, nil
	}
	b, err := json.Marshal(p)
	if err != nil {
		return nil, err
	}
	memo.mu.Lock()
	if memo.m == nil {
		memo.m = make(map[workload.Profile]memoProfile)
	}
	if len(memo.m) < memoCap {
		memo.m[*p] = memoProfile{*p, b}
	}
	memo.mu.Unlock()
	return b, nil
}

// profileFloats indexes workload.Profile's float64 fields.
var profileFloats = func() []int {
	var idx []int
	t := reflect.TypeOf(workload.Profile{})
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() == reflect.Float64 {
			idx = append(idx, i)
		}
	}
	return idx
}()

// sameFloatBits reports whether a and b hold the same bits in every float
// field. For two profiles that are ==, it is false only where one holds
// -0 and the other +0.
func sameFloatBits(a, b *workload.Profile) bool {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, i := range profileFloats {
		if math.Float64bits(va.Field(i).Float()) != math.Float64bits(vb.Field(i).Float()) {
			return false
		}
	}
	return true
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
	key, err := keyWith(&s.memo, ps, m, opts)
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
	ms, ok := decodeEntry(b, key, ps, m)
	if !ok {
		s.Obs.Add("mstore.corrupt", 1)
		s.warnOnce("corrupt", "corrupt entry %s: treating as miss", key)
		return nil, false
	}
	s.Obs.Add("mstore.hits", 1)
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
	key, err := keyWith(&s.memo, ps, m, opts)
	if err != nil {
		return err
	}
	b, err := encodeEntry(key, ms)
	if err != nil {
		return fmt.Errorf("encode entry %s: %w", key, err)
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
