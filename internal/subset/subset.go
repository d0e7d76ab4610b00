// Package subset implements §IV-C of the paper: representative-subset
// creation from hierarchical clusters and SPECspeed-style validation of
// the chosen subset across two machines.
//
// The score of machine A on a workload is
//
//	score = execution time on the baseline machine / execution time on A
//
// and a suite's composite score is the geometric mean of its per-workload
// scores. A subset is accurate when its composite score is close to the
// full suite's composite score; the paper reports 98.7% for its 8-category
// subset A, 96.3% for the 64-workload subset B, and 99.9% for the
// exhaustively optimized subset A(o).
package subset

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Scores converts per-workload execution times on the baseline machine and
// on machine A into SPECspeed-style scores (baseline time / A time).
// Throughput-metric suites (ASP.NET) pass inverted values upstream so that
// "bigger is better" holds either way.
func Scores(baselineTimes, machineTimes []float64) ([]float64, error) {
	if len(baselineTimes) != len(machineTimes) {
		return nil, fmt.Errorf("subset: time vectors differ in length: %d vs %d", len(baselineTimes), len(machineTimes))
	}
	out := make([]float64, len(baselineTimes))
	for i := range baselineTimes {
		if baselineTimes[i] <= 0 || machineTimes[i] <= 0 {
			return nil, fmt.Errorf("subset: non-positive time at workload %d", i)
		}
		out[i] = baselineTimes[i] / machineTimes[i]
	}
	return out, nil
}

// Composite returns the geometric-mean composite score.
func Composite(scores []float64) float64 { return stats.GeoMean(scores) }

// CompositeOf returns the composite over the selected indices only.
func CompositeOf(scores []float64, idx []int) float64 {
	sel := make([]float64, len(idx))
	for i, j := range idx {
		sel[i] = scores[j]
	}
	return Composite(sel)
}

// Accuracy returns how well the subset composite reproduces the full
// composite, as a fraction in (0, 1]: 1 - |full - sub| / full.
func Accuracy(full, sub float64) float64 {
	if full == 0 {
		return 0
	}
	acc := 1 - math.Abs(full-sub)/full
	if acc < 0 {
		return 0
	}
	return acc
}

// Validation is the result of validating one subset (one bar of Fig 2).
type Validation struct {
	Name             string
	FullComposite    float64
	SubsetComposite  float64
	AccuracyFraction float64 // 0..1
	Subset           []int   // selected workload indices
}

// Validate scores a subset selection against the full suite.
func Validate(name string, scores []float64, selected []int) Validation {
	full := Composite(scores)
	sub := CompositeOf(scores, selected)
	return Validation{
		Name:             name,
		FullComposite:    full,
		SubsetComposite:  sub,
		AccuracyFraction: Accuracy(full, sub),
		Subset:           append([]int(nil), selected...),
	}
}

// Optimal searches for the selection (one workload per cluster) whose
// composite best matches the full composite — the paper's Subset A(o),
// "obtained by iterating over all possible combinations". The search is
// exact when the number of combinations is at most maxCombos, and falls
// back to per-cluster greedy refinement otherwise (the greedy result is a
// lower bound on the optimum and in practice lands within rounding of it).
func Optimal(scores []float64, clusters [][]int, maxCombos int) Validation {
	full := Composite(scores)
	nCombos := 1
	exact := true
	for _, cl := range clusters {
		if nCombos > maxCombos/len(cl) {
			exact = false
			break
		}
		nCombos *= len(cl)
	}

	pick := make([]int, len(clusters))
	for i, cl := range clusters {
		pick[i] = cl[0]
	}

	if exact {
		best := append([]int(nil), pick...)
		bestErr := math.Inf(1)
		var walk func(i int)
		var cur = make([]int, len(clusters))
		walk = func(i int) {
			if i == len(clusters) {
				e := math.Abs(CompositeOf(scores, cur) - full)
				if e < bestErr {
					bestErr = e
					copy(best, cur)
				}
				return
			}
			for _, w := range clusters[i] {
				cur[i] = w
				walk(i + 1)
			}
		}
		walk(0)
		return Validate("optimal", scores, best)
	}

	// Greedy coordinate refinement: sweep clusters, choosing the member
	// minimizing the composite error, until a fixed point.
	for iter := 0; iter < 8; iter++ {
		changed := false
		for i, cl := range clusters {
			bestW, bestErr := pick[i], math.Inf(1)
			for _, w := range cl {
				pick[i] = w
				e := math.Abs(CompositeOf(scores, pick) - full)
				if e < bestErr {
					bestErr, bestW = e, w
				}
			}
			if pick[i] != bestW {
				changed = true
			}
			pick[i] = bestW
		}
		if !changed {
			break
		}
	}
	return Validate("optimal(greedy)", scores, pick)
}
