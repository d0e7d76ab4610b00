package subset

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestScores(t *testing.T) {
	s, err := Scores([]float64{10, 20}, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s[0] != 2 || s[1] != 2 {
		t.Fatalf("scores %v", s)
	}
	if _, err := Scores([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Scores([]float64{0}, []float64{1}); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestCompositeGeomean(t *testing.T) {
	if got := Composite([]float64{1, 4}); !almost(got, 2, 1e-9) {
		t.Fatalf("composite %v", got)
	}
	if got := CompositeOf([]float64{1, 4, 100}, []int{0, 1}); !almost(got, 2, 1e-9) {
		t.Fatalf("composite of subset %v", got)
	}
}

func TestAccuracy(t *testing.T) {
	if Accuracy(2, 2) != 1 {
		t.Fatal("identical composites should be 100% accurate")
	}
	if got := Accuracy(2, 1.9); !almost(got, 0.95, 1e-9) {
		t.Fatalf("accuracy %v", got)
	}
	if Accuracy(0, 1) != 0 {
		t.Fatal("zero full composite")
	}
	if Accuracy(1, 3) != 0 {
		t.Fatal("accuracy must clamp at 0")
	}
}

func TestValidateUniformScoresPerfect(t *testing.T) {
	// If every workload speeds up identically, any subset is perfect.
	scores := []float64{1.5, 1.5, 1.5, 1.5}
	v := Validate("s", scores, []int{0, 2})
	if !almost(v.AccuracyFraction, 1, 1e-9) {
		t.Fatalf("accuracy %v", v.AccuracyFraction)
	}
}

func TestValidateDetectsBadSubset(t *testing.T) {
	scores := []float64{1, 1, 1, 10}
	good := Validate("good", scores, []int{0, 3}) // geomean sqrt(10)=3.16 vs full 1.78
	bad := Validate("bad", scores, []int{3})
	if bad.AccuracyFraction >= good.AccuracyFraction {
		t.Fatalf("subset of only the outlier should score worse: %v vs %v",
			bad.AccuracyFraction, good.AccuracyFraction)
	}
}

func TestOptimalExactBeatsFirstPick(t *testing.T) {
	r := rng.New(1)
	scores := make([]float64, 12)
	for i := range scores {
		scores[i] = 0.5 + r.Float64()*2
	}
	clusters := [][]int{{0, 1, 2}, {3, 4, 5}, {6, 7, 8}, {9, 10, 11}}
	firstPick := []int{0, 3, 6, 9}
	naive := Validate("naive", scores, firstPick)
	opt := Optimal(scores, clusters, 1_000_000)
	if opt.AccuracyFraction+1e-12 < naive.AccuracyFraction {
		t.Fatalf("optimal %v worse than naive %v", opt.AccuracyFraction, naive.AccuracyFraction)
	}
	// The optimal subset must still be one per cluster.
	if len(opt.Subset) != len(clusters) {
		t.Fatalf("optimal picked %d items", len(opt.Subset))
	}
	for i, w := range opt.Subset {
		found := false
		for _, c := range clusters[i] {
			if c == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("pick %d not in cluster %d", w, i)
		}
	}
}

func TestOptimalGreedyFallback(t *testing.T) {
	r := rng.New(2)
	scores := make([]float64, 100)
	for i := range scores {
		scores[i] = 0.5 + r.Float64()*2
	}
	var clusters [][]int
	for i := 0; i < 10; i++ {
		cl := make([]int, 10)
		for j := range cl {
			cl[j] = i*10 + j
		}
		clusters = append(clusters, cl)
	}
	// 10^10 combinations forces the greedy path.
	opt := Optimal(scores, clusters, 1_000_000)
	if opt.Name != "optimal(greedy)" {
		t.Fatalf("expected greedy fallback, got %q", opt.Name)
	}
	if opt.AccuracyFraction < 0.95 {
		t.Fatalf("greedy refinement should land close: %v", opt.AccuracyFraction)
	}
}

func TestOptimalAtLeastAsGoodAsMedoidsProperty(t *testing.T) {
	prop := func(seed uint64) bool {
		r := rng.New(seed)
		n := 12
		scores := make([]float64, n)
		for i := range scores {
			scores[i] = 0.2 + r.Float64()*3
		}
		clusters := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9, 10, 11}}
		opt := Optimal(scores, clusters, 1_000_000)
		anyPick := Validate("any", scores, []int{1, 5, 9})
		return opt.AccuracyFraction >= anyPick.AccuracyFraction-1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
