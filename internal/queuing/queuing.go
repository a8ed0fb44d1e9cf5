// Package queuing implements the operational laws the paper's allocation
// algorithm builds on (Denning & Buzen, "The operational analysis of
// queueing network models"): Little's law and the Forced Flow law's visit
// ratio, a Little's-law consistency check for measured data, and the MVA
// solver the search surrogate calibrates.
package queuing

import (
	"fmt"
	"math"
	"time"
)

// Little returns L = X * R: the mean number of jobs in a station with
// throughput X (jobs/s) and residence time R.
func Little(x float64, r time.Duration) float64 {
	return x * r.Seconds()
}

// VisitRatio returns V_k = X_k / X, or 0 when X is not positive.
func VisitRatio(xk, x float64) float64 {
	if x <= 0 {
		return 0
	}
	return xk / x
}

// CheckLittle validates that measured L, X, and R satisfy Little's law
// within relative tolerance tol.
func CheckLittle(l, x float64, r time.Duration, tol float64) error {
	expect := Little(x, r)
	scale := math.Max(math.Abs(expect), 1e-9)
	if math.Abs(l-expect)/scale > tol {
		return fmt.Errorf("queuing: Little's law violated: L=%.4g but X*R=%.4g (tol %.2g)", l, expect, tol)
	}
	return nil
}
