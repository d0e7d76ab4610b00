package mstore

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestCodecNamesEveryField walks sim.Counters, into topdown.Slots, and
// sim.Sample: the codec's word lists must name every field once, in
// declaration order and with its kind, and each word must read and write
// the field it names and no other. A field added to either struct then
// fails here instead of silently dropping out of the store.
func TestCodecNamesEveryField(t *testing.T) {
	t.Run("Counters", func(t *testing.T) { checkWords(t, counterWords) })
	t.Run("Sample", func(t *testing.T) { checkWords(t, sampleWords) })
}

// leafField is one non-struct field of a struct type, reached through
// nested structs: its dotted path, index path and kind.
type leafField struct {
	name  string
	index []int
	kind  reflect.Kind
}

func leafFields(typ reflect.Type, prefix string, index []int) []leafField {
	var out []leafField
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		idx := append(append([]int(nil), index...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, prefix+f.Name+".", idx)...)
			continue
		}
		out = append(out, leafField{prefix + f.Name, idx, f.Type.Kind()})
	}
	return out
}

func checkWords[T any](t *testing.T, ws []word[T]) {
	fields := leafFields(reflect.TypeOf((*T)(nil)).Elem(), "", nil)
	if len(ws) != len(fields) {
		t.Errorf("the codec lists %d words, the struct has %d fields", len(ws), len(fields))
	}
	// A value whose bits are nonzero as a uint64, a float64 (3.0) and an
	// int64, so setting it shows which field a word writes.
	const v = 0x4008000000000000
	for i, f := range fields {
		if i >= len(ws) {
			t.Errorf("field %d %s (%v) has no word", i, f.name, f.kind)
			continue
		}
		w := ws[i]
		if w.name != f.name || w.kind != f.kind {
			t.Errorf("word %d is %s (%v), want field %s (%v)", i, w.name, w.kind, f.name, f.kind)
			continue
		}
		var x T
		w.set(&x, v)
		rv := reflect.ValueOf(&x).Elem()
		for _, g := range fields {
			if set := !rv.FieldByIndex(g.index).IsZero(); set != (g.name == f.name) {
				t.Errorf("setting word %s set field %s = %v", w.name, g.name, set)
			}
		}
		var got uint64
		switch fv := rv.FieldByIndex(f.index); f.kind {
		case reflect.Uint64:
			got = fv.Uint()
		case reflect.Float64:
			got = math.Float64bits(fv.Float())
		case reflect.Int:
			got = uint64(fv.Int())
		}
		if got != v || w.get(&x) != v {
			t.Errorf("word %s wrote %#x and reads %#x, want %#x", w.name, got, w.get(&x), v)
		}
	}
}

// BenchmarkGet reads a warm 220-record entry, the size of the Quick
// dotnet-individual entry: the base64 and record decoding plus the
// re-derivation of every measurement.
func BenchmarkGet(b *testing.B) {
	all := workload.DotNetWorkloads()
	ps := make([]workload.Profile, 220)
	for i := range ps {
		ps[i] = all[i*(len(all)/len(ps))]
	}
	m, opts := machine.CoreI9(), sim.Options{Instructions: 2000}
	ms, err := core.MeasureSuite(context.Background(), nil, ps, m, opts, 0)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	s.Put(ps, m, opts, ms)
	if _, ok := s.Get(ps, m, opts); !ok {
		b.Fatal("the stored entry does not read back")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(ps, m, opts); !ok {
			b.Fatal("miss")
		}
	}
}
