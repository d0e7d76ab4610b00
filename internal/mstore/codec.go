package mstore

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"

	"repro/internal/clr"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/workload"
)

// An entry file is entryHead, the key, entryMid, the base64 of the
// entry's records, then entryTail: one JSON object whose only free parts
// are the key and the records. Put writes exactly these bytes and Get
// accepts nothing else, so neither side runs encoding/json.
var (
	entryHead = []byte(`{"Version":` + strconv.Itoa(FormatVersion) + `,"Key":"`)
	entryMid  = []byte(`","Records":"`)
	entryTail = []byte(`"}`)
)

// b64 encodes the records. Strict decoding also rejects nonzero padding
// bits, so a body Get accepts is the one encoding of its bytes.
var b64 = base64.StdEncoding.Strict()

// The first byte of each record says which kind it is.
const (
	kindCounters byte = 1 // counters, then a sample count and the samples
	kindError    byte = 2 // a message length, then the message
)

// A word is one field of a fixed-layout record of T: an 8-byte
// little-endian word. name is the field's path in T; kind is its type,
// reflect.Uint64, reflect.Float64 (stored as its IEEE 754 bits, finite
// only) or reflect.Int (stored as an int64).
type word[T any] struct {
	name string
	kind reflect.Kind
	get  func(*T) uint64
	set  func(*T, uint64)
}

func uintWord[T any](name string, f func(*T) *uint64) word[T] {
	return word[T]{name, reflect.Uint64,
		func(t *T) uint64 { return *f(t) },
		func(t *T, v uint64) { *f(t) = v }}
}

func floatWord[T any](name string, f func(*T) *float64) word[T] {
	return word[T]{name, reflect.Float64,
		func(t *T) uint64 { return math.Float64bits(*f(t)) },
		func(t *T, v uint64) { *f(t) = math.Float64frombits(v) }}
}

func intWord[T any](name string, f func(*T) *int) word[T] {
	return word[T]{name, reflect.Int,
		func(t *T) uint64 { return uint64(int64(*f(t))) },
		func(t *T, v uint64) { *f(t) = int(int64(v)) }}
}

// counterWords lays out a counters record: every field of sim.Counters,
// topdown.Slots inlined, in declaration order. A field missing here
// would silently drop out of the store; TestCodecNamesEveryField fails
// instead.
var counterWords = []word[sim.Counters]{
	uintWord("Instructions", func(c *sim.Counters) *uint64 { return &c.Instructions }),
	uintWord("KernelInstructions", func(c *sim.Counters) *uint64 { return &c.KernelInstructions }),
	uintWord("Branches", func(c *sim.Counters) *uint64 { return &c.Branches }),
	uintWord("TakenBranches", func(c *sim.Counters) *uint64 { return &c.TakenBranches }),
	uintWord("BranchMisses", func(c *sim.Counters) *uint64 { return &c.BranchMisses }),
	uintWord("BTBMisses", func(c *sim.Counters) *uint64 { return &c.BTBMisses }),
	uintWord("Loads", func(c *sim.Counters) *uint64 { return &c.Loads }),
	uintWord("Stores", func(c *sim.Counters) *uint64 { return &c.Stores }),
	uintWord("L1IAccesses", func(c *sim.Counters) *uint64 { return &c.L1IAccesses }),
	uintWord("L1IMisses", func(c *sim.Counters) *uint64 { return &c.L1IMisses }),
	uintWord("L1DAccesses", func(c *sim.Counters) *uint64 { return &c.L1DAccesses }),
	uintWord("L1DMisses", func(c *sim.Counters) *uint64 { return &c.L1DMisses }),
	uintWord("L2Accesses", func(c *sim.Counters) *uint64 { return &c.L2Accesses }),
	uintWord("L2Misses", func(c *sim.Counters) *uint64 { return &c.L2Misses }),
	uintWord("L3Accesses", func(c *sim.Counters) *uint64 { return &c.L3Accesses }),
	uintWord("L3Misses", func(c *sim.Counters) *uint64 { return &c.L3Misses }),
	uintWord("ITLBMisses", func(c *sim.Counters) *uint64 { return &c.ITLBMisses }),
	uintWord("DTLBLoadMisses", func(c *sim.Counters) *uint64 { return &c.DTLBLoadMisses }),
	uintWord("DTLBStoreMisses", func(c *sim.Counters) *uint64 { return &c.DTLBStoreMisses }),
	uintWord("PageFaults", func(c *sim.Counters) *uint64 { return &c.PageFaults }),
	uintWord("DRAMReads", func(c *sim.Counters) *uint64 { return &c.DRAMReads }),
	uintWord("DRAMWrites", func(c *sim.Counters) *uint64 { return &c.DRAMWrites }),
	uintWord("RowAccesses", func(c *sim.Counters) *uint64 { return &c.RowAccesses }),
	uintWord("RowMisses", func(c *sim.Counters) *uint64 { return &c.RowMisses }),
	uintWord("UsefulPrefetches", func(c *sim.Counters) *uint64 { return &c.UsefulPrefetches }),
	uintWord("UselessPrefetches", func(c *sim.Counters) *uint64 { return &c.UselessPrefetches }),
	floatWord("Cycles", func(c *sim.Counters) *float64 { return &c.Cycles }),
	uintWord("GCTriggered", func(c *sim.Counters) *uint64 { return &c.GCTriggered }),
	uintWord("GCAllocTicks", func(c *sim.Counters) *uint64 { return &c.GCAllocTicks }),
	uintWord("JITStarts", func(c *sim.Counters) *uint64 { return &c.JITStarts }),
	uintWord("Exceptions", func(c *sim.Counters) *uint64 { return &c.Exceptions }),
	uintWord("Contentions", func(c *sim.Counters) *uint64 { return &c.Contentions }),
	floatWord("GCPauseCycles", func(c *sim.Counters) *float64 { return &c.GCPauseCycles }),
	uintWord("JITCompileInstr", func(c *sim.Counters) *uint64 { return &c.JITCompileInstr }),
	floatWord("Slots.Total", func(c *sim.Counters) *float64 { return &c.Slots.Total }),
	floatWord("Slots.Retiring", func(c *sim.Counters) *float64 { return &c.Slots.Retiring }),
	floatWord("Slots.BadSpec", func(c *sim.Counters) *float64 { return &c.Slots.BadSpec }),
	floatWord("Slots.FEICache", func(c *sim.Counters) *float64 { return &c.Slots.FEICache }),
	floatWord("Slots.FEITLB", func(c *sim.Counters) *float64 { return &c.Slots.FEITLB }),
	floatWord("Slots.FEResteer", func(c *sim.Counters) *float64 { return &c.Slots.FEResteer }),
	floatWord("Slots.FEMSSwitch", func(c *sim.Counters) *float64 { return &c.Slots.FEMSSwitch }),
	floatWord("Slots.FEDSB", func(c *sim.Counters) *float64 { return &c.Slots.FEDSB }),
	floatWord("Slots.FEMITE", func(c *sim.Counters) *float64 { return &c.Slots.FEMITE }),
	floatWord("Slots.BEL1Bound", func(c *sim.Counters) *float64 { return &c.Slots.BEL1Bound }),
	floatWord("Slots.BEL2Bound", func(c *sim.Counters) *float64 { return &c.Slots.BEL2Bound }),
	floatWord("Slots.BEL3Bound", func(c *sim.Counters) *float64 { return &c.Slots.BEL3Bound }),
	floatWord("Slots.BEDRAMBound", func(c *sim.Counters) *float64 { return &c.Slots.BEDRAMBound }),
	floatWord("Slots.BEStores", func(c *sim.Counters) *float64 { return &c.Slots.BEStores }),
	floatWord("Slots.BEDivider", func(c *sim.Counters) *float64 { return &c.Slots.BEDivider }),
	floatWord("Slots.BEPortsUtil", func(c *sim.Counters) *float64 { return &c.Slots.BEPortsUtil }),
	intWord("ActiveCores", func(c *sim.Counters) *int { return &c.ActiveCores }),
	floatWord("WallSeconds", func(c *sim.Counters) *float64 { return &c.WallSeconds }),
}

// sampleWords lays out one sim.Sample of a counters record, in
// declaration order.
var sampleWords = []word[sim.Sample]{
	floatWord("CycleStart", func(s *sim.Sample) *float64 { return &s.CycleStart }),
	floatWord("CycleEnd", func(s *sim.Sample) *float64 { return &s.CycleEnd }),
	uintWord("Instructions", func(s *sim.Sample) *uint64 { return &s.Instructions }),
	floatWord("Cycles", func(s *sim.Sample) *float64 { return &s.Cycles }),
	uintWord("BranchMisses", func(s *sim.Sample) *uint64 { return &s.BranchMisses }),
	uintWord("L1IMisses", func(s *sim.Sample) *uint64 { return &s.L1IMisses }),
	uintWord("L2Misses", func(s *sim.Sample) *uint64 { return &s.L2Misses }),
	uintWord("LLCMisses", func(s *sim.Sample) *uint64 { return &s.LLCMisses }),
	uintWord("PageFaults", func(s *sim.Sample) *uint64 { return &s.PageFaults }),
	uintWord("UselessPref", func(s *sim.Sample) *uint64 { return &s.UselessPref }),
	uintWord("JITStarts", func(s *sim.Sample) *uint64 { return &s.JITStarts }),
	uintWord("GCTriggered", func(s *sim.Sample) *uint64 { return &s.GCTriggered }),
}

// finiteBits reports whether v holds the bits of a finite float64: an
// all-ones exponent is an infinity or a NaN.
func finiteBits(v uint64) bool {
	const exp = 0x7ff << 52
	return v&exp != exp
}

// appendWords appends t's words in the order ws lists them, or fails on
// a float that is not finite.
func appendWords[T any](b []byte, t *T, ws []word[T]) ([]byte, error) {
	for _, w := range ws {
		v := w.get(t)
		if w.kind == reflect.Float64 && !finiteBits(v) {
			return nil, fmt.Errorf("%s is %v", w.name, math.Float64frombits(v))
		}
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return b, nil
}

// encodeEntry returns the entry file Put writes for ms under key. The
// records are a record count, then per measurement one counters record
// or one error record. It fails on a measurement that holds neither a
// result nor an error, an error with an empty message, or a float that
// is not finite: Get would reject the entry it made.
func encodeEntry(key string, ms []core.Measurement) ([]byte, error) {
	// Room for a count and one sampleless counters record per measurement.
	raw := make([]byte, 0, 8+len(ms)*(1+8*len(counterWords)+8))
	raw = binary.LittleEndian.AppendUint64(raw, uint64(len(ms)))
	for i := range ms {
		var err error
		if raw, err = appendRecord(raw, &ms[i]); err != nil {
			return nil, fmt.Errorf("measurement %d (%s): %w", i, ms[i].Workload.Name, err)
		}
	}
	return entryFile(key, raw), nil
}

// entryFile wraps the encoded records raw in the entry file for key.
func entryFile(key string, raw []byte) []byte {
	b := make([]byte, 0, len(entryHead)+len(key)+len(entryMid)+b64.EncodedLen(len(raw))+len(entryTail))
	b = append(append(append(b, entryHead...), key...), entryMid...)
	b = b64.AppendEncode(b, raw)
	return append(b, entryTail...)
}

// appendRecord appends the record of mm.
func appendRecord(b []byte, mm *core.Measurement) ([]byte, error) {
	switch {
	case mm.Err != nil:
		msg := mm.Err.Error()
		if msg == "" {
			return nil, errors.New("error has an empty message")
		}
		b = binary.LittleEndian.AppendUint64(append(b, kindError), uint64(len(msg)))
		return append(b, msg...), nil
	case mm.Result != nil:
		var err error
		if b, err = appendWords(append(b, kindCounters), &mm.Result.Counters, counterWords); err != nil {
			return nil, err
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(len(mm.Result.Samples)))
		for i := range mm.Result.Samples {
			if b, err = appendWords(b, &mm.Result.Samples[i], sampleWords); err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
		}
		return b, nil
	default:
		return nil, errors.New("has neither a result nor an error")
	}
}

// decodeEntry rebuilds the measurements of ps on m from the entry file b
// stored under key, or reports it corrupt. It accepts only the bytes
// encodeEntry writes, and rebuilds each measurement through the code a
// fresh run uses (sim.NewResult, core.Derive).
func decodeEntry(b []byte, key string, ps []workload.Profile, m *machine.Config) ([]core.Measurement, bool) {
	body, ok := entryBody(b, key)
	if !ok {
		return nil, false
	}
	raw := make([]byte, b64.DecodedLen(len(body)))
	n, err := b64.Decode(raw, body)
	// The decoder skips \r and \n, so only a body of exactly the encoded
	// length of what it decoded is one Put wrote.
	if err != nil || b64.EncodedLen(n) != len(body) {
		return nil, false
	}
	r := reader{raw[:n]}
	if count, ok := r.u64(); !ok || count != uint64(len(ps)) {
		return nil, false
	}
	ms := make([]core.Measurement, len(ps))
	for i := range ms {
		if ms[i], ok = r.measurement(ps[i], m); !ok {
			return nil, false
		}
	}
	return ms, len(r.b) == 0
}

// entryBody returns the base64 body of b if b is an entry file for key.
func entryBody(b []byte, key string) ([]byte, bool) {
	b, ok := bytes.CutPrefix(b, entryHead)
	if !ok || len(b) < len(key) || string(b[:len(key)]) != key {
		return nil, false
	}
	if b, ok = bytes.CutPrefix(b[len(key):], entryMid); !ok {
		return nil, false
	}
	return bytes.CutSuffix(b, entryTail)
}

// reader consumes decoded records. Every length it reads is checked
// against the bytes left before anything is allocated for it.
type reader struct{ b []byte }

func (r *reader) u64() (uint64, bool) {
	if len(r.b) < 8 {
		return 0, false
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, true
}

// readWords sets t's fields from the next len(ws) words, or fails if the
// bytes run out or a float is not finite.
func readWords[T any](r *reader, t *T, ws []word[T]) bool {
	if len(r.b) < 8*len(ws) {
		return false
	}
	for i, w := range ws {
		v := binary.LittleEndian.Uint64(r.b[8*i:])
		if w.kind == reflect.Float64 && !finiteBits(v) {
			return false
		}
		w.set(t, v)
	}
	r.b = r.b[8*len(ws):]
	return true
}

// measurement decodes the next record as the measurement of p on m. It
// fails, making the entry corrupt, on an unknown kind, an empty error
// message, a length past the end, or counters that do not re-derive
// into a successful measurement.
func (r *reader) measurement(p workload.Profile, m *machine.Config) (core.Measurement, bool) {
	if len(r.b) == 0 {
		return core.Measurement{}, false
	}
	kind := r.b[0]
	r.b = r.b[1:]
	switch kind {
	case kindError:
		n, ok := r.u64()
		if !ok || n == 0 || n > uint64(len(r.b)) {
			return core.Measurement{}, false
		}
		msg := string(r.b[:n])
		r.b = r.b[n:]
		err := errors.New(msg)
		// Callers match the simulator's sentinels with errors.Is (Fig 14
		// records them as FAILED cells), so a read returns them as such.
		for _, sentinel := range []error{clr.ErrOutOfMemory, clr.ErrServerGCReserve} {
			if msg == sentinel.Error() {
				err = sentinel
			}
		}
		return core.Measurement{Workload: p, Err: err}, true
	case kindCounters:
		var c sim.Counters
		if !readWords(r, &c, counterWords) {
			return core.Measurement{}, false
		}
		n, ok := r.u64()
		if !ok || n > uint64(len(r.b)/(8*len(sampleWords))) {
			return core.Measurement{}, false
		}
		var samples []sim.Sample
		if n > 0 {
			samples = make([]sim.Sample, n)
			for i := range samples {
				if !readWords(r, &samples[i], sampleWords) {
					return core.Measurement{}, false
				}
			}
		}
		res, err := sim.NewResult(p, m, c, samples)
		if err != nil {
			return core.Measurement{}, false
		}
		ms := core.Derive(res)
		return ms, ms.Err == nil
	}
	return core.Measurement{}, false
}
