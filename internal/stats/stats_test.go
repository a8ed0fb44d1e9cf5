package stats

import (
	"math"
	"testing"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("mean %v, want 5", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Errorf("variance %v, want %v", got, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestDetectInterventionDecrease(t *testing.T) {
	// SLO satisfaction stable at ~0.99, deteriorating from index 5.
	ys := []float64{0.99, 0.992, 0.988, 0.991, 0.99, 0.85, 0.7, 0.5, 0.3}
	k := DetectIntervention(ys, Decrease)
	if k != 4 {
		t.Errorf("intervention at index %d, want 4 (last stable point)", k)
	}
}

func TestDetectInterventionIncrease(t *testing.T) {
	// Response times stable then exploding.
	ys := []float64{0.05, 0.06, 0.05, 0.055, 0.3, 0.9, 2.0, 3.5}
	k := DetectIntervention(ys, Increase)
	if k < 2 || k > 4 {
		t.Errorf("intervention at index %d, want near 3", k)
	}
}

func TestDetectInterventionNone(t *testing.T) {
	ys := []float64{0.99, 0.988, 0.991, 0.99, 0.989, 0.992, 0.99}
	if k := DetectIntervention(ys, Decrease); k != -1 {
		t.Errorf("stable series flagged at %d", k)
	}
}

func TestDetectInterventionWrongDirectionIgnored(t *testing.T) {
	// Series improves — no deterioration to find.
	ys := []float64{0.5, 0.52, 0.49, 0.51, 0.9, 0.95, 0.99}
	if k := DetectIntervention(ys, Decrease); k != -1 {
		t.Errorf("improvement flagged as deterioration at %d", k)
	}
}

func TestDetectInterventionMinShift(t *testing.T) {
	// Tiny but consistent drop on a noiseless baseline: below the
	// relative-shift floor.
	ys := []float64{0.990, 0.990, 0.990, 0.990, 0.989, 0.989, 0.989, 0.989}
	if k := DetectIntervention(ys, Decrease); k != -1 {
		t.Errorf("negligible drift flagged at %d", k)
	}
}

func TestDetectInterventionShortSeries(t *testing.T) {
	if k := DetectIntervention([]float64{1, 0}, Decrease); k != -1 {
		t.Errorf("too-short series flagged at %d", k)
	}
}
