// Subsetting: the paper's §IV workflow end to end on the .NET suite —
// measure all 44 categories, PCA the 24-metric vectors, hierarchically
// cluster in the top-4-PC space, pick an 8-category representative
// subset, and validate it with SPECspeed-style composite scores between
// the Xeon baseline and the i9.
//
// Run with:
//
//	go run ./examples/subsetting
package main

import (
	"fmt"
	"log"

	"repro/charnet"
)

func main() {
	suite, err := charnet.Workloads("dotnet")
	if err != nil {
		log.Fatal(err)
	}
	opts := charnet.Options{Instructions: 20000}

	fmt.Printf("measuring %d .NET categories on two machines...\n", len(suite))
	onI9 := charnet.MeasureSuite(suite, charnet.CoreI9(), opts)
	onXeon := charnet.MeasureSuite(suite, charnet.XeonE5(), opts)

	// Fit the characterization model: PCA + hierarchical clustering.
	ch, err := charnet.Characterize(onI9, 4, charnet.Average)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-4 principal components cover %.1f%% of variance (paper: 79%%)\n",
		ch.PCA.CumulativeVariance(4)*100)

	// Show the Table III-style loading factors of PRCO1.
	fmt.Println("\nPRCO1 top loadings:")
	for _, ld := range ch.PCA.TopLoadings(0, 3, charnet.MetricNames()) {
		fmt.Printf("  %-32s %+.3f\n", ld.Metric, ld.Weight)
	}

	// Cut the dendrogram at 8 clusters and pick medoids.
	sel := ch.Subset(8)
	fmt.Println("\n8-category representative subset:")
	for _, name := range ch.SubsetNames(sel) {
		fmt.Printf("  %s\n", name)
	}

	// Validate: does the subset's composite score match the full suite's?
	val, err := charnet.ValidateSubset("subset A", onXeon, onI9, sel)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull-suite composite score:  %.4f\n", val.FullComposite)
	fmt.Printf("subset composite score:      %.4f\n", val.SubsetComposite)
	fmt.Printf("subset accuracy:             %.1f%%  (paper: 98.7%%)\n", val.AccuracyFraction*100)
}
