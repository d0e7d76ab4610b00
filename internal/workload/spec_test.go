package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
)

// minimalSpec builds a valid spec document that tests mutate into
// specific failure shapes.
func minimalSpec(mutate func(s string) string) []byte {
	doc := `{
  "format": "charnet-suite-spec",
  "version": 1,
  "wire": "tiny",
  "suite": "Tiny",
  "defaults": {
    "BranchFrac": 0.15, "LoadFrac": 0.3, "StoreFrac": 0.12, "KernelFrac": 0.05,
    "CodeFootprintBytes": 262144, "MethodCount": 400, "MethodZipf": 1.1,
    "CallEveryInstr": 60, "BranchPredictability": 0.94, "TakenFrac": 0.55,
    "MicrocodeFrac": 0.02, "DivFrac": 0.01, "WorkingSetBytes": 8388608,
    "DataZipf": 0.9, "SequentialFrac": 0.6, "LocalFrac": 0.8, "ILP": 0.5,
    "Managed": false, "DefaultCores": 1, "InstructionScale": 1.0
  },
  "workloads": [{"name": "w1"}, {"name": "w2", "profile": {"ILP": 0.7}}]
}`
	if mutate != nil {
		doc = mutate(doc)
	}
	return []byte(doc)
}

func TestParseSpecMinimal(t *testing.T) {
	def, err := ParseSpec(minimalSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if def.Wire != "tiny" || def.Suite != Suite("Tiny") || def.Len() != 2 {
		t.Fatalf("def = %+v, want tiny/Tiny/2", def)
	}
	p, ok := def.Lookup("w2")
	if !ok || p.ILP != 0.7 {
		t.Fatalf("w2 = %+v ok=%v, want ILP override 0.7", p, ok)
	}
	if p.Suite != Suite("Tiny") {
		t.Fatalf("w2 suite = %q, want Tiny", p.Suite)
	}
	// The seed contract: identity is (suite display name, workload name).
	want := Profile{Suite: Suite("Tiny"), Name: "w2"}
	if p.Seed() != want.Seed() {
		t.Fatal("Seed() must depend only on suite display name and workload name")
	}
}

// TestLookupIndexesCatalog: Lookup answers from its name index exactly
// the catalog entry of that name, for every built-in workload.
func TestLookupIndexesCatalog(t *testing.T) {
	for _, def := range Builtin().Suites() {
		ps := def.Profiles()
		for i := range ps {
			if p, ok := def.Lookup(ps[i].Name); !ok || p != ps[i] {
				t.Fatalf("%s: Lookup(%q) ok=%v does not return catalog entry %d", def.Wire, ps[i].Name, ok, i)
			}
		}
		if _, ok := def.Lookup("no-such-workload"); ok {
			t.Fatalf("%s: Lookup found a name the catalog lacks", def.Wire)
		}
	}
}

// specErrorCases are malformed documents, one parse-time rejection
// each; FuzzParseSpec seeds its corpus from them too.
var specErrorCases = []struct {
	name    string
	doc     []byte
	wantErr string
}{
	{"not-json", []byte("nope"), "spec:"},
	{"wrong-format", minimalSpec(func(s string) string {
		return strings.Replace(s, "charnet-suite-spec", "other-format", 1)
	}), `format "other-format"`},
	{"wrong-version", minimalSpec(func(s string) string {
		return strings.Replace(s, `"version": 1`, `"version": 99`, 1)
	}), "version 99"},
	{"bad-wire", minimalSpec(func(s string) string {
		return strings.Replace(s, `"wire": "tiny"`, `"wire": "Not Wire"`, 1)
	}), "wire name"},
	{"missing-suite", minimalSpec(func(s string) string {
		return strings.Replace(s, `"suite": "Tiny",`, "", 1)
	}), "missing suite display name"},
	{"unknown-top-level-key", minimalSpec(func(s string) string {
		return strings.Replace(s, `"wire"`, `"wirr"`, 1)
	}), "unknown field"},
	{"unknown-profile-key", minimalSpec(func(s string) string {
		return strings.Replace(s, `"ILP": 0.7`, `"IPL": 0.7`, 1)
	}), "unknown field"},
	{"unnamed-workload", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"name": "w1"}`, `{}`, 1)
	}), "unnamed workload"},
	{"duplicate-name", minimalSpec(func(s string) string {
		return strings.Replace(s, `"name": "w2"`, `"name": "w1"`, 1)
	}), `duplicate workload name "w1"`},
	{"invalid-profile", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"BranchPredictability": 0.2}`, 1)
	}), "BranchPredictability 0.2"},
	{"microcode-above-one", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"MicrocodeFrac": 3}`, 1)
	}), "MicrocodeFrac 3"},
	{"negative-div", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"DivFrac": -0.01}`, 1)
	}), "DivFrac -0.01"},
	{"negative-alloc-rate", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"Managed": true, "AllocBytesPerKI": -8}`, 1)
	}), "AllocBytesPerKI -8"},
	{"exception-rate-above-1000", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"Managed": true, "ExceptionPKI": 1500}`, 1)
	}), "ExceptionPKI 1500"},
	{"negative-contention-rate", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"Managed": true, "ContentionPKI": -1}`, 1)
	}), "ContentionPKI -1"},
	{"method-count-above-bound", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"MethodCount": 65537}`, 1)
	}), "MethodCount 65537 above 65536"},
	{"code-footprint-above-bound", minimalSpec(func(s string) string {
		return strings.Replace(s, `{"ILP": 0.7}`, `{"CodeFootprintBytes": 67108865}`, 1)
	}), "CodeFootprintBytes 67108865 above 67108864"},
	{"no-workloads", minimalSpec(func(s string) string {
		return strings.Replace(s, `[{"name": "w1"}, {"name": "w2", "profile": {"ILP": 0.7}}]`, `[]`, 1)
	}), "no workloads"},
}

// TestParseSpecErrors exercises every parse-time rejection: the engine
// must fail loading, never generation, so a registered suite cannot
// misbehave later.
func TestParseSpecErrors(t *testing.T) {
	for _, tc := range specErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(tc.doc)
			if err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.doc)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// addGenerate splices a generate block (and a families table) into the
// minimal spec.
func addGenerate(block string) []byte {
	return minimalSpec(func(s string) string {
		families := `"families": {"fams": [{"name": "A", "ops": [{"field": "ILP", "op": "mul", "value": 1.1, "clamp": [0, 1]}]}]},`
		return strings.Replace(s, `"workloads":`, families+"\n  \"generate\": ["+block+"],\n  \"workloads\":", 1)
	})
}

func TestParseSpecGenerateErrors(t *testing.T) {
	for _, tc := range []struct {
		name    string
		block   string
		wantErr string
	}{
		{"missing-seed", `{"category": "C", "spread": 0.2, "count": 2, "families": "fams"}`, "missing seed"},
		{"bad-spread", `{"category": "C", "seed": ["x"], "spread": 1.5, "count": 2, "families": "fams"}`, "spread"},
		{"count-and-names", `{"category": "C", "seed": ["x"], "spread": 0.2, "count": 2, "families": "fams", "names": ["n"]}`, "exactly one of count or names"},
		{"neither-count-nor-names", `{"category": "C", "seed": ["x"], "spread": 0.2}`, "exactly one of count or names"},
		{"count-without-category", `{"seed": ["x"], "spread": 0.2, "count": 2, "families": "fams"}`, "requires a category"},
		{"unknown-families", `{"category": "C", "seed": ["x"], "spread": 0.2, "count": 2, "families": "nope"}`, `families "nope" not defined`},
		{"empty-name", `{"seed": ["x"], "spread": 0.2, "names": ["ok", ""]}`, "empty workload name"},
		{"bad-post-op", `{"seed": ["x"], "spread": 0.2, "names": ["n"], "post": [{"field": "ILP", "op": "frobnicate"}]}`, `unknown op "frobnicate"`},
		{"bad-post-field", `{"seed": ["x"], "spread": 0.2, "names": ["n"], "post": [{"field": "Name", "op": "set", "value": 1}]}`, "unknown op field"},
		{"count-above-bound", `{"category": "C", "seed": ["x"], "spread": 0.2, "count": 65537, "families": "fams"}`, "count 65537 above 65536"},
		{"suite-above-bound", `{"category": "C", "seed": ["x"], "spread": 0.2, "count": 40000, "families": "fams"}, {"category": "D", "seed": ["x"], "spread": 0.2, "count": 40000, "families": "fams"}`, "80002 workloads, above 65536"},
		{"clamp-without-range", `{"seed": ["x"], "spread": 0.2, "names": ["n"], "post": [{"field": "ILP", "op": "clamp"}]}`, "requires a clamp range"},
		// JSON carries no NaN or infinity, but op arithmetic can make them.
		{"infinite-field", `{"seed": ["x"], "spread": 0.2, "names": ["n"], "post": [{"field": "DataZipf", "op": "mul", "value": 1e308}, {"field": "DataZipf", "op": "mul", "value": 1e308}]}`, "DataZipf +Inf"},
		{"nan-field", `{"seed": ["x"], "spread": 0.2, "names": ["n"], "post": [{"field": "TakenFrac", "op": "mul", "value": 1e308}, {"field": "TakenFrac", "op": "mul", "value": 1e308}, {"field": "TakenFrac", "op": "mul", "value": 0}]}`, "TakenFrac NaN"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseSpec(addGenerate(tc.block))
			if err == nil {
				t.Fatal("ParseSpec accepted a malformed generate block")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseSpecGenerateDeterministic: parsing the same bytes twice
// produces identical profile sets — the in-process half of the
// determinism contract (the cross-process half lives in
// internal/mstore's re-exec test).
func TestParseSpecGenerateDeterministic(t *testing.T) {
	doc := addGenerate(`{"category": "C", "description": "gen", "seed": ["tiny", "gen"], "spread": 0.3, "count": 5, "families": "fams", "post": [{"field": "InstructionScale", "op": "clamp", "clamp": [0.05, 3]}]}`)
	a, err := ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	ap, bp := a.Profiles(), b.Profiles()
	if len(ap) != len(bp) || len(ap) != 7 { // 5 generated + 2 explicit
		t.Fatalf("profile counts %d/%d, want 7", len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("profile %d (%s) differs between two parses of identical bytes", i, ap[i].Name)
		}
	}
	// Count-mode naming: Category.Family.NN cycling the family list.
	if _, ok := a.Lookup("C.A.00"); !ok {
		t.Fatalf("generated names missing C.A.00: %v", names(ap))
	}
	if _, ok := a.Lookup("C.A.04"); !ok {
		t.Fatalf("generated names missing C.A.04: %v", names(ap))
	}
}

func names(ps []Profile) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// TestRegistryDuplicateWire: wire names are unique per registry, and the
// built-in registry cannot be shadowed.
func TestRegistryDuplicateWire(t *testing.T) {
	reg := NewRegistry()
	def, err := ParseSpec(minimalSpec(func(s string) string {
		return strings.Replace(s, `"wire": "tiny"`, `"wire": "dotnet"`, 1)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(def); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("registering a duplicate wire returned %v", err)
	}
	fresh, err := ParseSpec(minimalSpec(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(fresh); err != nil {
		t.Fatal(err)
	}
	if got := reg.Names(); got[len(got)-1] != "tiny" || len(got) != len(Builtin().Names())+1 {
		t.Fatalf("registry names = %v", got)
	}
	// The shared built-in registry must be untouched by the copy's growth.
	if _, ok := Builtin().Lookup("tiny"); ok {
		t.Fatal("external registration leaked into the built-in registry")
	}
}

// TestParseSpecHugeCountAllocatesLittle: a generator asking for two
// billion workloads fails before generating any of them.
func TestParseSpecHugeCountAllocatesLittle(t *testing.T) {
	doc := addGenerate(`{"category": "C", "seed": ["x"], "spread": 0.2, "count": 2000000000, "families": "fams"}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseSpec(doc)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "count 2000000000 above 65536") {
		t.Fatalf("ParseSpec error %v, want the count bound", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting the spec allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestExampleSpecsParse: every shipped example spec stays within the
// parse-time bounds.
func TestExampleSpecsParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no example specs found")
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseSpec(b); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}

// builtinCatalogDigest is the SHA-256 of the built-in suites' profiles,
// each suite rendered by json.Marshal, in registry order.
const builtinCatalogDigest = "0371c3669fb1cd3a6f109e0b4c63b618a6969cdef864a6b1b268f8541c3b15d4"

// TestBuiltinCatalogDigest pins every field of every built-in workload
// to the bit: JSON spells each float64 bit pattern distinctly, -0
// included, which a == comparison cannot tell from 0.
func TestBuiltinCatalogDigest(t *testing.T) {
	h := sha256.New()
	for _, def := range Builtin().Suites() {
		b, err := json.Marshal(def.Profiles())
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != builtinCatalogDigest {
		t.Fatalf("built-in catalog digest %s, want %s", got, builtinCatalogDigest)
	}
}

// builtinSpecData returns the embedded spec documents in registry order.
func builtinSpecData(tb testing.TB) [][]byte {
	tb.Helper()
	var docs [][]byte
	for _, wire := range builtinOrder {
		data, err := builtinSpecs.ReadFile("specs/" + wire + ".json")
		if err != nil {
			tb.Fatal(err)
		}
		docs = append(docs, data)
	}
	return docs
}

// BenchmarkParseBuiltinSpecs times what every process pays before it
// can answer: compiling the four embedded specs into the 3,023 built-in
// workloads.
func BenchmarkParseBuiltinSpecs(b *testing.B) {
	docs := builtinSpecData(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, data := range docs {
			if _, err := ParseSpec(data); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// FuzzParseSpec feeds arbitrary documents to the spec boundary. An
// accepted spec must parse again to the same profiles, bit for bit, and
// every profile it yields must pass Validate.
func FuzzParseSpec(f *testing.F) {
	for _, data := range builtinSpecData(f) {
		f.Add(data)
	}
	example, err := os.ReadFile("../../examples/spec2017mem.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	for _, tc := range specErrorCases {
		f.Add(tc.doc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		def, err := ParseSpec(data)
		if err != nil {
			return
		}
		again, err := ParseSpec(data)
		if err != nil {
			t.Fatalf("second parse of an accepted spec failed: %v", err)
		}
		ps := def.Profiles()
		for i := range ps {
			if err := ps[i].Validate(); err != nil {
				t.Fatalf("accepted profile fails Validate: %v", err)
			}
		}
		a, err := json.Marshal(ps)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(again.Profiles())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("two parses of one spec produced different profiles")
		}
	})
}

// TestParseSpecBadLastPostOpAllocatesLittle: a spec at the workload
// bound whose last generator carries a malformed post op fails before
// generating any workload.
func TestParseSpecBadLastPostOpAllocatesLittle(t *testing.T) {
	count := MaxSuiteWorkloads - 3 // the two explicit workloads and one named
	doc := addGenerate(fmt.Sprintf(`{"category": "C", "seed": ["x"], "spread": 0.2, "count": %d, "families": "fams"}, `+
		`{"seed": ["y"], "spread": 0.2, "names": ["n"], "post": [{"field": "ILP", "op": "frobnicate"}]}`, count))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseSpec(doc)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), `generate[1]: post: field ILP: unknown op "frobnicate"`) {
		t.Fatalf("ParseSpec error %v, want generate[1]'s bad post op", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Errorf("rejecting the spec allocated %d bytes, want under 1 MiB", alloc)
	}
}

// TestOpFieldsMatchParams: the op vocabulary is exactly the numeric
// fields of profileParams, and each name's accessors reach the Profile
// field of that name.
func TestOpFieldsMatchParams(t *testing.T) {
	typ := reflect.TypeOf(profileParams{})
	numeric := 0
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		switch typ.Field(i).Type.Kind() {
		case reflect.Float64, reflect.Int, reflect.Int64:
		default:
			continue
		}
		numeric++
		f, ok := opFields[name]
		if !ok {
			t.Errorf("numeric parameter %s has no op field", name)
			continue
		}
		var p Profile
		f.set(&p, 42)
		v := reflect.ValueOf(p).FieldByName(name)
		if got := f.get(&p); got != 42 || !v.Equal(reflect.ValueOf(42).Convert(v.Type())) {
			t.Errorf("op field %s reads %v and stores %v, want 42 in Profile.%s", name, got, v, name)
		}
	}
	if len(opFields) != numeric {
		t.Errorf("%d op fields, want the %d numeric parameters", len(opFields), numeric)
	}
}
