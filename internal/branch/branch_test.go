package branch

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/testutil"
)

func TestAlwaysTakenLearns(t *testing.T) {
	p := New(12, 512, 4)
	pc := uint64(0x400000)
	wrong := 0
	for i := 0; i < 1000; i++ {
		correct, _ := p.Predict(pc, true)
		if !correct {
			wrong++
		}
	}
	// Gshare hashes PC with 10 bits of global history, so the first ~10
	// outcomes walk through fresh counters; after the history register
	// saturates with 1s the index is stable and prediction is perfect.
	if wrong > 15 {
		t.Fatalf("always-taken branch mispredicted %d times", wrong)
	}
	if _, hit := p.Predict(pc, true); !hit {
		t.Fatal("warmed BTB should hit")
	}
}

func TestAlternatingPatternViaHistory(t *testing.T) {
	// Gshare with global history learns strict alternation.
	p := New(14, 512, 4)
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 2000; i++ {
		correct, _ := p.Predict(pc, i%2 == 0)
		if i > 200 && !correct {
			wrong++
		}
	}
	if float64(wrong)/1800 > 0.05 {
		t.Fatalf("alternating pattern mispredict rate %v after warmup", float64(wrong)/1800)
	}
}

func TestRandomBranchesMispredict(t *testing.T) {
	p := New(12, 512, 4)
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		p.Predict(uint64(0x400000+4*r.Intn(256)), r.Bool(0.5))
	}
	mr := p.Stats.MispredictRate()
	if mr < 0.35 || mr > 0.65 {
		t.Fatalf("random branches should mispredict ~50%%, got %v", mr)
	}
}

func TestBTBColdMissThenHit(t *testing.T) {
	p := New(12, 512, 4)
	pc := uint64(0x400200)
	_, hit := p.Predict(pc, true)
	if hit {
		t.Fatal("first taken branch should miss BTB")
	}
	_, hit = p.Predict(pc, true)
	if !hit {
		t.Fatal("second taken branch should hit BTB")
	}
	// Not-taken branches don't consult the BTB.
	lookups := p.Stats.BTBLookups
	p.Predict(pc, false)
	if p.Stats.BTBLookups != lookups {
		t.Fatal("not-taken branch should not access BTB")
	}
}

func TestBTBCapacityEviction(t *testing.T) {
	p := New(12, 16, 2) // 8 sets x 2 ways
	// 3 branches mapping to the same set: stride 8 sets * 4 bytes = 32.
	a, b, c := uint64(0), uint64(32), uint64(64)
	p.Predict(a, true)
	p.Predict(b, true)
	p.Predict(a, true) // refresh a
	p.Predict(c, true) // evicts b
	_, hit := p.Predict(b, true)
	if hit {
		t.Fatal("b should have been evicted from BTB")
	}
}

func TestFlush(t *testing.T) {
	p := New(12, 512, 4)
	pc := uint64(0x400300)
	for i := 0; i < 10; i++ {
		p.Predict(pc, true)
	}
	p.Flush()
	correct, hit := p.Predict(pc, true)
	if hit {
		t.Fatal("BTB should be cold after flush")
	}
	if correct {
		t.Fatal("direction state should be cold (weakly not-taken) after flush")
	}
}

func TestFlushRangeSelective(t *testing.T) {
	p := New(12, 4096, 4)
	inside := uint64(0x10000)
	outside := uint64(0x80000)
	for i := 0; i < 10; i++ {
		p.Predict(inside, true)
		p.Predict(outside, true)
	}
	p.FlushRange(0x10000, 0x1000)
	_, hitIn := p.Predict(inside, true)
	if hitIn {
		t.Fatal("BTB entry inside the flushed page should be cold")
	}
	_, hitOut := p.Predict(outside, true)
	if !hitOut {
		t.Fatal("BTB entry outside the flushed page should survive")
	}
}

func TestJITRelocationColdStartScenario(t *testing.T) {
	// The §VII-A1 effect: a branch with stable behavior relocated to a new
	// address mispredicts again until retrained.
	p := New(12, 512, 4)
	oldPC := uint64(0x400000)
	for i := 0; i < 100; i++ {
		p.Predict(oldPC, true)
	}
	p.ResetStats()
	// Relocate: same control-flow behavior, new address.
	newPC := uint64(0x900000)
	p.Predict(newPC, true)
	if p.Stats.BTBMisses == 0 {
		t.Fatal("relocated branch should cold-miss the BTB")
	}
}

func TestStatsRates(t *testing.T) {
	var s Stats
	testutil.InDelta(t, "idle mispredict rate", s.MispredictRate(), 0, 0)
	testutil.InDelta(t, "idle BTB miss rate", s.BTBMissRate(), 0, 0)
	s = Stats{Branches: 10, Mispredicts: 2, BTBLookups: 5, BTBMisses: 1}
	testutil.InDelta(t, "mispredict rate", s.MispredictRate(), 0.2, 1e-12)
	testutil.InDelta(t, "BTB miss rate", s.BTBMissRate(), 0.2, 1e-12)
}

func TestConstructorValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"zero bits":   func() { New(0, 512, 4) },
		"huge bits":   func() { New(30, 512, 4) },
		"bad ways":    func() { New(12, 512, 0) },
		"non-pow-two": func() { New(12, 12, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// TestResetBehavesNew drives a used-then-reset predictor and a new one
// with the same branch stream: every prediction and the stats must agree.
func TestResetBehavesNew(t *testing.T) {
	used := New(10, 256, 4)
	r := rng.New(5)
	for i := 0; i < 5000; i++ {
		used.Predict(uint64(r.Intn(1<<14))*4, r.Bool(0.6))
	}
	used.Reset()
	fresh := New(10, 256, 4)
	for i := 0; i < 5000; i++ {
		pc, taken := uint64(r.Intn(1<<14))*4, r.Bool(0.6)
		d1, b1 := used.Predict(pc, taken)
		d2, b2 := fresh.Predict(pc, taken)
		if d1 != d2 || b1 != b2 {
			t.Fatalf("branch %d: reset predictor (%v, %v), new (%v, %v)", i, d1, b1, d2, b2)
		}
	}
	if used.Stats != fresh.Stats {
		t.Fatalf("stats %+v, want %+v", used.Stats, fresh.Stats)
	}
}
