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

// InterventionConfig tunes the change-point detection.
type InterventionConfig struct {
	// MinPre is the minimum number of pre-intervention points forming the
	// stable baseline (default 3).
	MinPre int
	// Sigmas is the baseline-noise multiple a point must exceed to count
	// as an intervention (default 4).
	Sigmas float64
	// MinShift is the minimum absolute deviation to accept, guarding
	// against flagging negligible drifts in very quiet baselines.
	MinShift float64
	// RelShift is the minimum deviation as a fraction of the baseline mean
	// (default 0.05). The effective threshold is the max of all three.
	RelShift float64
}

// DetectIntervention locates the first index k at which ys deviates from
// the preceding stable baseline by more than the noise threshold, in the
// given direction, and stays deviated for the rest of the series (the
// paper's intervention analysis on SLO satisfaction: stable under low
// workload, deteriorating once the critical resource saturates). It returns
// the index of the last stable point, or -1 if no intervention is found.
func DetectIntervention(ys []float64, dir Direction, cfg InterventionConfig) int {
	if cfg.MinPre < 2 {
		cfg.MinPre = 3
	}
	if cfg.Sigmas <= 0 {
		cfg.Sigmas = 4
	}
	if cfg.RelShift <= 0 {
		cfg.RelShift = 0.05
	}
	dev := func(baseline, y float64) float64 {
		if dir == Decrease {
			return baseline - y
		}
		return y - baseline
	}
	n := len(ys)
	for k := cfg.MinPre; k < n; k++ {
		pre := ys[:k]
		m := Mean(pre)
		sd := math.Sqrt(Variance(pre))
		thresh := math.Max(cfg.Sigmas*sd, math.Max(cfg.MinShift, cfg.RelShift*math.Abs(m)))
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
