package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("generators with equal seeds diverged at step %d", i)
		}
	}
}

func TestEnsureNonZeroStateRepairsZero(t *testing.T) {
	var s [4]uint64
	ensureNonZeroState(&s)
	if s[0]|s[1]|s[2]|s[3] == 0 {
		t.Fatal("all-zero state must be repaired")
	}
	// A generator started from the repaired state must actually produce
	// output: from the true all-zero state xoshiro256** emits zeros forever.
	r := &Rand{s: s}
	nonzero := false
	for i := 0; i < 16; i++ {
		if r.Uint64() != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("repaired state still generates only zeros")
	}
}

func TestEnsureNonZeroStateKeepsNonZero(t *testing.T) {
	for _, s := range [][4]uint64{
		{1, 0, 0, 0},
		{0, 0, 0, 7},
		{2, 3, 5, 8},
	} {
		got := s
		ensureNonZeroState(&got)
		if got != s {
			t.Fatalf("nonzero state %v was modified to %v", s, got)
		}
	}
}

func TestNewNeverYieldsZeroState(t *testing.T) {
	// Spot-check seeds, including 0: New must always hand back a usable
	// (nonzero) internal state.
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		r := New(seed)
		if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
			t.Fatalf("New(%d) produced the all-zero state", seed)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestNewFromOrderSensitivity(t *testing.T) {
	a := NewFrom(1, 2, 3)
	b := NewFrom(3, 2, 1)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("NewFrom should be order sensitive")
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("System.Runtime") != HashString("System.Runtime") {
		t.Fatal("HashString not stable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("HashString trivially colliding")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64RangeProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRangeProperty(t *testing.T) {
	prop := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestUniformity(t *testing.T) {
	r := New(99)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[r.Intn(buckets)]++
	}
	expect := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-expect) > 0.05*expect {
			t.Fatalf("bucket %d count %d deviates more than 5%% from %v", i, c, expect)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(123)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		r := New(5)
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("Poisson(%v) sample mean %v", lambda, mean)
		}
	}
}

func TestPoissonZeroAndNegative(t *testing.T) {
	r := New(1)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive lambda should be 0")
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(2.0)
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) sample mean %v, want ~0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(13)
	p := 0.25
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p // 3.0
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) sample mean %v, want ~%v", p, mean, want)
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(3)
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	trues := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.3) {
			trues++
		}
	}
	if math.Abs(float64(trues)/100000-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", float64(trues)/100000)
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(21)
	var z Zipf
	z.Init(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Next(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf(1.0) should strongly favor rank 0: c0=%d c50=%d", counts[0], counts[50])
	}
	// Rank 0 should get roughly 1/H(100) ~ 19% of mass.
	frac := float64(counts[0]) / 100000
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("Zipf rank-0 mass %v outside [0.15,0.25]", frac)
	}
}

func TestZipfUniformDegenerate(t *testing.T) {
	r := New(22)
	var z Zipf
	z.Init(1000, 2) // a larger table first: Init must reuse it cleanly
	z.Init(10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Next(r)]++
	}
	for i, c := range counts {
		if math.Abs(float64(c)-10000) > 500 {
			t.Fatalf("Zipf(0) bucket %d count %d not ~uniform", i, c)
		}
	}
}

// zipfPowRef is the cumulative table Zipf.Init must build: each term
// 1/math.Pow(i+1, s), summed in rank order, then normalized.
func zipfPowRef(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// checkZipfMatchesPow re-initializes z to (n, s) and requires every CDF
// entry to have the reference's exact bits.
func checkZipfMatchesPow(t *testing.T, z *Zipf, n int, s float64) {
	t.Helper()
	z.Init(n, s)
	want := zipfPowRef(n, s)
	if len(z.cdf) != n {
		t.Fatalf("n=%d s=%v: table has %d entries", n, s, len(z.cdf))
	}
	for i := range want {
		if math.Float64bits(z.cdf[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d s=%v (%#x): cdf[%d] = %v, math.Pow gives %v",
				n, s, math.Float64bits(s), i, z.cdf[i], want[i])
		}
	}
}

// TestZipfInitMatchesPow pins Init's table to the math.Pow loop bit for
// bit: on math.Pow's special exponents, on both neighbours of the ones
// where its path changes, on exponents large enough to underflow the
// terms (on both sides of 2^63, where math.Pow leaves its general path),
// and on a seeded sweep of [0, 3]. It runs at the engine's n = 512 and at
// smaller n on the same Zipf, growing n as well as shrinking it, so a
// change of n must rebuild the cached logarithms.
func TestZipfInitMatchesPow(t *testing.T) {
	exps := []float64{0, 0.5, 1, 1.5, 2, 100.7, 1e6, 0x1p62, 0x1p63, math.Inf(1), math.NaN()}
	for _, s := range []float64{0.5, 1, 1.5} {
		exps = append(exps, math.Nextafter(s, 0), math.Nextafter(s, 4))
	}
	var z Zipf
	for _, n := range []int{1, 37, 512, 2, 511, 512} {
		for _, s := range exps {
			checkZipfMatchesPow(t, &z, n, s)
		}
	}
	r := New(25)
	for i := 0; i < 10000; i++ {
		checkZipfMatchesPow(t, &z, 512, 3*r.Float64())
	}
}

// FuzzZipfInit checks Init against the math.Pow loop for any exponent in
// [0, 8] and any n in [1, 4096], on a Zipf first built at the engine's
// n = 512.
func FuzzZipfInit(f *testing.F) {
	f.Add(uint16(512), 0.5)
	f.Add(uint16(511), math.Nextafter(1, 2))
	f.Add(uint16(100), 1.5)
	f.Add(uint16(0), 0.0)
	f.Add(uint16(4095), 7.999)
	f.Fuzz(func(t *testing.T, n uint16, s float64) {
		s = math.Abs(s)
		if s > 8 {
			s = math.Mod(s, 8)
		}
		if math.IsNaN(s) {
			t.Skip("no exponent")
		}
		var z Zipf
		checkZipfMatchesPow(t, &z, 512, s)
		checkZipfMatchesPow(t, &z, int(n%4096)+1, s)
	})
}

func TestPermIsPermutation(t *testing.T) {
	prop := func(seed uint64, n uint8) bool {
		size := int(n%64) + 1
		p := New(seed).Perm(size)
		seen := make([]bool, size)
		for _, v := range p {
			if v < 0 || v >= size || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// boolRef is Bool's definition: no draw for p <= 0 or p >= 1, else one
// Float64 draw compared against p.
func boolRef(r *Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// checkHitMatchesBool requires Hit(P(p)) to decide as boolRef over a run
// of draws and leave the generator in the same state. When P(p) is a
// threshold it also checks the boundary itself: the largest hitting draw
// and the smallest missing one, which random draws almost never reach.
func checkHitMatchesBool(t *testing.T, seed uint64, p float64) {
	t.Helper()
	a, b := New(seed), New(seed)
	prob := P(p)
	for i := 0; i < 64; i++ {
		if got, want := a.Hit(prob), boolRef(b, p); got != want {
			t.Fatalf("p=%v draw %d: Hit %v, Float64() < p %v", p, i, got, want)
		}
	}
	if a.s != b.s {
		t.Fatalf("p=%v: generator states diverged", p)
	}
	if thr := uint64(prob) - 1; prob > 1 && prob <= 1<<53 {
		if !(float64(thr-1)/(1<<53) < p) || float64(thr)/(1<<53) < p {
			t.Fatalf("p=%v: threshold %d is not the boundary of Float64() < p", p, thr)
		}
	}
}

// TestHitMatchesBool checks P and Hit on Bool's no-draw cases, NaN, the
// extremes of the open interval and the engine's constant probabilities.
func TestHitMatchesBool(t *testing.T) {
	for _, p := range []float64{
		0, math.Copysign(0, -1), -0.5, 1, 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, 0x1p-53, 1 - 0x1p-53, 0.5,
		0.06, 0.08, 0.9, 0.18,
	} {
		checkHitMatchesBool(t, 7, p)
	}
	r := New(1)
	if r.Hit(P(0)) || !r.Hit(P(1)) || r.Hit(Prob(0)) {
		t.Fatal("P(0) and the zero Prob must miss, P(1) must hit")
	}
	if r.s != New(1).s {
		t.Fatal("P(0), P(1) and the zero Prob must not draw")
	}
}

// FuzzHitMatchesBool checks Hit(P(p)) against Bool's definition for any
// probability and generator seed.
func FuzzHitMatchesBool(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, p float64) {
		checkHitMatchesBool(t, seed, p)
	})
}

// BenchmarkZipfInit rebuilds the engine's 512-entry table on a warmed
// Zipf, as every simulated run does twice.
func BenchmarkZipfInit(b *testing.B) {
	var z Zipf
	z.Init(512, 1.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Init(512, 1.2)
	}
}
