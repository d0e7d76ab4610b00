package mstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// keyEnvelope is the reference key serialization: Key must hash exactly
// json.Marshal of this struct. Field order is fixed by the struct and
// encoding/json is deterministic for these shapes (no maps).
type keyEnvelope struct {
	Version  int
	Profiles []workload.Profile
	Machine  *machine.Config
	Options  sim.Options
}

// refKey is the reference key: the SHA-256 of the marshalled envelope.
func refKey(ps []workload.Profile, m *machine.Config, opts sim.Options) (string, error) {
	b, err := json.Marshal(keyEnvelope{Version: FormatVersion, Profiles: ps, Machine: m, Options: opts})
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// storeInputs are the arguments of one store call.
type storeInputs struct {
	ps   []workload.Profile
	m    *machine.Config
	opts sim.Options
}

// inputRecorder is a core.MeasurementCache that records what it is asked
// for and answers every Get with a hit holding no measurements, so a Lab
// over it keys every suite without simulating any.
type inputRecorder struct {
	mu sync.Mutex
	in []storeInputs
}

func (r *inputRecorder) Get(ps []workload.Profile, m *machine.Config, opts sim.Options) ([]core.Measurement, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.in = append(r.in, storeInputs{ps, m, opts})
	return nil, true
}

func (r *inputRecorder) Put([]workload.Profile, *machine.Config, sim.Options, []core.Measurement) {}

// labInputs returns the store inputs of every built-in suite on every
// machine, as a Lab keys them under cfg: a sampled suite's stride sample
// under Quick, its whole catalog under Full.
func labInputs(tb testing.TB, cfg experiments.Config) []storeInputs {
	tb.Helper()
	rec := &inputRecorder{}
	lab := experiments.NewLab(cfg)
	lab.Store = rec
	for _, def := range workload.Builtin().Suites() {
		for _, m := range machine.All() {
			if _, err := lab.MeasureSuite(context.Background(), def, m); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return rec.in
}

// keysPinnedDigest is the SHA-256 of every key labInputs yields under the
// Quick and Full configurations, one hex key and a newline each, as
// recorded before keys were streamed and memoized. A change to it moves
// every stored entry's name.
const keysPinnedDigest = "9d5ca4dc6997726bdc9cf35e4e137e56c1215a618c738223b5fe7a5a99dc089c"

// TestKeysPinned checks that the package-level Key and a Store's memoized
// key, taken twice, equal the reference for every suite measurement a
// Lab keys, and that those keys are the ones recorded.
func TestKeysPinned(t *testing.T) {
	h := sha256.New()
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	for _, cfg := range []experiments.Config{experiments.Quick(), experiments.Full()} {
		for _, in := range labInputs(t, cfg) {
			want, err := refKey(in.ps, in.m, in.opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Key(in.ps, in.m, in.opts)
			if err != nil || got != want {
				t.Fatalf("Key of %d profiles on %s = %s, %v; want %s", len(in.ps), in.m.Name, got, err, want)
			}
			for pass := 0; pass < 2; pass++ {
				if got, err := keyWith(&s.memo, in.ps, in.m, in.opts); err != nil || got != want {
					t.Fatalf("pass %d: store key of %d profiles on %s = %s, %v; want %s", pass, len(in.ps), in.m.Name, got, err, want)
				}
			}
			fmt.Fprintln(h, want)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != keysPinnedDigest {
		t.Fatalf("key digest %s, want %s", got, keysPinnedDigest)
	}
	m, opts := machine.CoreI9(), sim.Options{Instructions: 3000}
	for _, ps := range [][]workload.Profile{nil, {}} {
		want, err := refKey(ps, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := keyWith(&s.memo, ps, m, opts); err != nil || got != want {
			t.Fatalf("store key of %#v = %s, %v; want %s", ps, got, err, want)
		}
	}
}

// The numeric fields of workload.Profile, in declaration order. A fuzz
// input's words fill them: a float field takes a word's bits, an int
// field the word as an int64, a bool its low bit.
var profileNumbers = func() []int {
	var idx []int
	t := reflect.TypeOf(workload.Profile{})
	for i := 0; i < t.NumField(); i++ {
		if t.Field(i).Type.Kind() != reflect.String {
			idx = append(idx, i)
		}
	}
	return idx
}()

// profileWords encodes p's numeric fields as FuzzKey's words.
func profileWords(p workload.Profile) []byte {
	v := reflect.ValueOf(p)
	b := make([]byte, 0, 8*len(profileNumbers))
	for _, i := range profileNumbers {
		f := v.Field(i)
		var w uint64
		switch f.Kind() {
		case reflect.Float64:
			w = math.Float64bits(f.Float())
		case reflect.Int, reflect.Int64:
			w = uint64(f.Int())
		case reflect.Bool:
			if f.Bool() {
				w = 1
			}
		default:
			panic(fmt.Sprintf("profileWords: field %s has kind %v", v.Type().Field(i).Name, f.Kind()))
		}
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// fuzzProfile decodes FuzzKey's inputs into a profile; missing words
// leave their fields zero.
func fuzzProfile(name, suite, category, description string, words []byte) workload.Profile {
	p := workload.Profile{Name: name, Suite: workload.Suite(suite), Category: category, Description: description}
	v := reflect.ValueOf(&p).Elem()
	for _, i := range profileNumbers {
		if len(words) < 8 {
			break
		}
		w := binary.LittleEndian.Uint64(words)
		words = words[8:]
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(w))
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(w))
		case reflect.Bool:
			f.SetBool(w&1 == 1)
		}
	}
	return p
}

// zeroTwin returns p with the sign of every zero float flipped: a profile
// == to p whose JSON differs wherever p holds a zero.
func zeroTwin(p workload.Profile) workload.Profile {
	v := reflect.ValueOf(&p).Elem()
	for _, i := range profileNumbers {
		if f := v.Field(i); f.Kind() == reflect.Float64 && f.Float() == 0 {
			f.SetFloat(math.Copysign(0, -math.Copysign(1, f.Float())))
		}
	}
	return p
}

// FuzzKey keys a fuzzed profile, its zero twin (every zero float's sign
// flipped) and the pair through one memo, as a Store does, each twice,
// the twin first: every key must equal the reference. A profile that
// does not marshal (a NaN or an infinity) must fail to key and stay out
// of the memo.
func FuzzKey(f *testing.F) {
	// Built-in profiles: every one of the small suites and one in a
	// hundred of dotnet-individual, whose 2,906 would spend check.sh's
	// 5 s fuzz budget on baseline coverage. TestKeysPinned keys them all.
	for _, def := range workload.Builtin().Suites() {
		step := 1
		if def.Len() > 1000 {
			step = 100
		}
		for i := 0; i < def.Len(); i += step {
			p := def.Profile(i)
			f.Add(p.Name, string(p.Suite), p.Category, p.Description, profileWords(p))
		}
	}
	base := builtin("dotnet").Profiles()[0]
	seed := func(name string, edit func(p *workload.Profile)) {
		p := base
		p.Name = name
		edit(&p)
		f.Add(p.Name, string(p.Suite), p.Category, p.Description, profileWords(p))
	}
	// A -0 profile, keyed after its +0 twin.
	seed("negative-zero", func(p *workload.Profile) { p.ExceptionPKI = math.Copysign(0, -1) })
	// encoding/json writes these floats with an exponent.
	seed("small", func(p *workload.Profile) { p.ContentionPKI = 1e-7 })
	seed("large", func(p *workload.Profile) { p.InstructionScale = 1e21 })
	seed("subnormal", func(p *workload.Profile) { p.AllocBytesPerKI = 5e-324 })
	// Strings encoding/json escapes or rewrites.
	seed("html <b>&amp;</b>", func(p *workload.Profile) { p.Description = "a<b>c&d" })
	seed("line separator", func(p *workload.Profile) { p.Category = "para\u2028graph\u2029" })
	seed("invalid \xff\xfe utf-8", func(p *workload.Profile) { p.Description = "\xc3\x28" })
	// Floats that do not marshal.
	seed("nan", func(p *workload.Profile) { p.ILP = math.NaN() })
	seed("inf", func(p *workload.Profile) { p.DataZipf = math.Inf(1) })
	seed("-inf", func(p *workload.Profile) { p.LocalFrac = math.Inf(-1) })

	m, opts := machine.CoreI9(), sim.Options{Instructions: 3000}
	f.Fuzz(func(t *testing.T, name, suite, category, description string, words []byte) {
		p := fuzzProfile(name, suite, category, description, words)
		twin := zeroTwin(p)
		var memo profileMemo
		for _, ps := range [][]workload.Profile{{twin}, {p}, {twin, p}} {
			want, werr := refKey(ps, m, opts)
			for pass := 0; pass < 2; pass++ {
				got, err := keyWith(&memo, ps, m, opts)
				if (err != nil) != (werr != nil) || got != want {
					t.Fatalf("pass %d: store key of %d profiles = %q, %v; want %q, %v", pass, len(ps), got, err, want, werr)
				}
			}
			if werr != nil {
				if n := len(memo.m); n != 0 {
					t.Fatalf("a profile that does not marshal left %d memo entries", n)
				}
			}
		}
	})
}

// TestKeyMemoBounded keys more distinct profiles than memoCap through one
// Store: the memo must stop at exactly memoCap entries, and keys of
// profiles past the cap must still equal the reference.
func TestKeyMemoBounded(t *testing.T) {
	const batch = 1024
	base := builtin("dotnet").Profiles()[0]
	m, opts := machine.CoreI9(), sim.Options{Instructions: 3000}
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	for n := 0; n < memoCap+2*batch; n += batch {
		ps := make([]workload.Profile, batch)
		for i := range ps {
			ps[i] = base
			ps[i].Name = fmt.Sprintf("w%06d", n+i)
		}
		want, err := refKey(ps, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			if got, err := keyWith(&s.memo, ps, m, opts); err != nil || got != want {
				t.Fatalf("profiles %d..%d, pass %d: key %s, %v; want %s", n, n+batch, pass, got, err, want)
			}
		}
	}
	if got := len(s.memo.m); got != memoCap {
		t.Fatalf("memo holds %d profiles, want the cap %d", got, memoCap)
	}
}

// TestKeyMemoConcurrent keys overlapping profile lists through one cold
// Store from several goroutines at once, as a Lab's concurrent drivers
// do, so the memo is filled and read at the same time: every key must
// equal the reference. check.sh repeats it under -race -count=10.
func TestKeyMemoConcurrent(t *testing.T) {
	ps := builtin("dotnet").Profiles()
	m, opts := machine.CoreI9(), sim.Options{Instructions: 3000}
	lists := [][]workload.Profile{ps, ps[:len(ps)/2], ps[len(ps)/3:], ps[:1]}
	want := make([]string, len(lists))
	for i, l := range lists {
		k, err := refKey(l, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}
	s := &Store{dir: t.TempDir(), Log: io.Discard}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := range lists {
				i := (g + j) % len(lists)
				if got, err := keyWith(&s.memo, lists[i], m, opts); err != nil || got != want[i] {
					t.Errorf("goroutine %d, list %d: key %s, %v; want %s", g, i, got, err, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkKey keys the Quick dotnet-individual sample on the Core i9,
// the largest key a warm Quick Lab asks a store for: through a Store
// whose memo holds the sample, and through the package-level Key, which
// encodes every profile.
func BenchmarkKey(b *testing.B) {
	var in storeInputs
	for _, x := range labInputs(b, experiments.Quick()) {
		if len(x.ps) > len(in.ps) {
			in = x
		}
	}
	want, err := refKey(in.ps, in.m, in.opts)
	if err != nil {
		b.Fatal(err)
	}
	s := &Store{dir: b.TempDir(), Log: io.Discard}
	for _, bc := range []struct {
		name string
		key  func() (string, error)
	}{
		{"store", func() (string, error) { return keyWith(&s.memo, in.ps, in.m, in.opts) }},
		{"Key", func() (string, error) { return Key(in.ps, in.m, in.opts) }},
	} {
		key := bc.key
		b.Run(bc.name, func(b *testing.B) {
			if got, err := key(); err != nil || got != want {
				b.Fatalf("key %s, %v; want %s", got, err, want)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := key(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
