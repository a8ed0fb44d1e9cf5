// Package stats provides the statistical machinery behind the paper's
// allocation algorithm: the intervention (change-point) analysis used to
// locate the minimum workload that saturates the critical hardware resource
// (paper §IV-B, citing Malkowski et al., DSOM'07).
package stats

import (
	"math"
)

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance, or 0 with fewer than two
// values.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// Direction says which way a series moves when the system saturates.
type Direction int

const (
	// Increase detects an upward shift (e.g. response times).
	Increase Direction = iota
	// Decrease detects a downward shift (e.g. SLO satisfaction).
	Decrease
)

// The change-point detection's thresholds: the baseline holds at least
// interventionMinPre points, and a point must deviate from its mean by
// more than interventionSigmas baseline deviations and by more than
// interventionRelShift of the mean.
const (
	interventionMinPre   = 3
	interventionSigmas   = 4
	interventionRelShift = 0.05
)

// DetectIntervention locates the first index k at which ys deviates from
// the preceding stable baseline by more than the noise threshold, in the
// given direction, and stays deviated for the rest of the series (the
// paper's intervention analysis on SLO satisfaction: stable under low
// workload, deteriorating once the critical resource saturates). It returns
// the index of the last stable point, or -1 if no intervention is found.
func DetectIntervention(ys []float64, dir Direction) int {
	dev := func(baseline, y float64) float64 {
		if dir == Decrease {
			return baseline - y
		}
		return y - baseline
	}
	n := len(ys)
	for k := interventionMinPre; k < n; k++ {
		pre := ys[:k]
		m := Mean(pre)
		sd := math.Sqrt(Variance(pre))
		thresh := math.Max(interventionSigmas*sd, interventionRelShift*math.Abs(m))
		if thresh == 0 {
			thresh = 1e-12
		}
		if dev(m, ys[k]) <= thresh {
			continue // still stable: extend the baseline
		}
		sustained := true
		for j := k + 1; j < n; j++ {
			if dev(m, ys[j]) < thresh/2 {
				sustained = false
				break
			}
		}
		if sustained {
			return k - 1
		}
	}
	return -1
}
