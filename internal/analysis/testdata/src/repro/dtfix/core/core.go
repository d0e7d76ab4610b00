// Package core mirrors the real suite-measurement package: detertaint
// roots the top-level MeasureSuite of any package whose path ends in
// /core, so this fixture proves the measurement entry point is policed
// even though no fixture driver calls it.
package core

import "repro/dtfix/clock"

// MeasureSuite is tainted: it stamps the measurement with the wall
// clock, so two runs over the same suite could differ.
func MeasureSuite(n int) int64 {
	return clock.Stamp() + int64(n)
}
