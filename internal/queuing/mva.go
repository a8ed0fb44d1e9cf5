package queuing

import (
	"fmt"
	"math"
	"time"
)

// Station is one queueing station of a closed product-form network: a
// FIFO/PS station with the given total service demand per request (visit
// ratio folded in). Servers > 1 models an m-server station — a tier of m
// identical nodes behind one queue, or a pool of m soft-resource units —
// solved by Seidmann's approximation (see MVA).
type Station struct {
	Name   string
	Demand time.Duration // D_k = V_k * S_k
	// Servers is the number of parallel servers at the station (0 and 1
	// both mean a single server).
	Servers int
}

// servers normalizes the Servers field: 0 means 1.
func (s Station) servers() int {
	if s.Servers < 1 {
		return 1
	}
	return s.Servers
}

// MVAResult is the analytic solution of the closed network at one
// population.
type MVAResult struct {
	N          int
	Throughput float64       // X(N), requests/s
	Response   time.Duration // R(N), total residence excluding think time
	Queue      []float64     // mean jobs per station
	Util       []float64     // utilization per station
}

// MVA solves a closed interactive queueing network by Mean Value Analysis:
// N customers, think time Z (a delay station), and the given stations. It
// models the n-tier system analytically — the approach the paper's related
// work contrasts with measurement — and is useful for capacity planning
// and for cross-validating the simulator below saturation (where GC does
// not yet bind; soft-resource pools enter only as m-server stations).
//
// Single-server stations (Servers <= 1) are solved exactly. An m-server
// station is handled by Seidmann's approximation: it is replaced by a
// single-server station with demand D/m (the queueing portion) plus a pure
// delay of D*(m-1)/m (the parallelism portion). The approximation is exact
// at m = 1 and in both limits (N << m behaves as a delay; N >> m saturates
// at the correct m/D capacity); in between it errs a few percent
// pessimistic — see the golden tests against exact birth-death results.
func MVA(stations []Station, think time.Duration, n int) (MVAResult, error) {
	if n < 0 {
		return MVAResult{}, fmt.Errorf("queuing: negative population %d", n)
	}
	for _, s := range stations {
		if s.Demand < 0 {
			return MVAResult{}, fmt.Errorf("queuing: station %q has negative demand", s.Name)
		}
	}
	k := len(stations)
	// Seidmann split: queueing demand D/m per station, and the parallelism
	// portions D*(m-1)/m pooled into the think-time delay.
	qd := make([]float64, k) // queueing demand, seconds
	delay := think.Seconds() // total delay-station demand, seconds
	extraDelay := 0.0        // the Seidmann delay portions alone
	for i, s := range stations {
		m := float64(s.servers())
		d := s.Demand.Seconds()
		qd[i] = d / m
		extraDelay += d * (m - 1) / m
	}
	delay += extraDelay
	q := make([]float64, k) // Q_k at the previous population
	res := MVAResult{N: n, Queue: make([]float64, k), Util: make([]float64, k)}
	for pop := 1; pop <= n; pop++ {
		// Residence per station with one more customer in the network.
		var total float64 // seconds
		r := make([]float64, k)
		for i := range stations {
			r[i] = qd[i] * (1 + q[i])
			total += r[i]
		}
		x := float64(pop) / (delay + total)
		for i := range stations {
			q[i] = x * r[i]
		}
		if pop == n {
			res.Throughput = x
			// Response includes each station's Seidmann delay portion —
			// residence at an m-server station spans both halves of the
			// split — but never the think time.
			res.Response = time.Duration((total + extraDelay) * float64(time.Second))
			for i, s := range stations {
				m := float64(s.servers())
				d := s.Demand.Seconds()
				// Mean jobs at the station: queueing portion plus the jobs
				// residing in the delay portion (X * delay demand).
				res.Queue[i] = q[i] + x*d*(m-1)/m
				// Utilization per server: X*D/m, the m-server utilization
				// law.
				res.Util[i] = x * d / m
			}
		}
	}
	if n == 0 {
		res.Response = 0
	}
	return res, nil
}

// BottleneckStation returns the index of the station with the largest
// per-server demand D/m — the analytic bottleneck, since an m-server
// station saturates at throughput m/D — or -1 for an empty network.
func BottleneckStation(stations []Station) int {
	best, idx := -1.0, -1
	for i, s := range stations {
		if d := s.Demand.Seconds() / float64(s.servers()); d > best {
			best, idx = d, i
		}
	}
	return idx
}

// DemandsFromMeasurement derives per-station service demands from one
// measured operating point via the utilization law (D_k = U_k / X) — the
// standard way to parameterize MVA from monitoring data.
func DemandsFromMeasurement(names []string, utils []float64, x float64) ([]Station, error) {
	if len(names) != len(utils) {
		return nil, fmt.Errorf("queuing: %d names vs %d utilizations", len(names), len(utils))
	}
	if x <= 0 {
		return nil, fmt.Errorf("queuing: non-positive throughput %v", x)
	}
	out := make([]Station, len(names))
	for i := range names {
		if utils[i] < 0 || utils[i] > 1 {
			return nil, fmt.Errorf("queuing: utilization %v out of [0,1]", utils[i])
		}
		out[i] = Station{
			Name:   names[i],
			Demand: time.Duration(utils[i] / x * float64(time.Second)),
		}
	}
	return out, nil
}

// SaturationKnee returns the analytic saturation population
// N* = (Z + R0)/(D/m)max for the network (R0 = zero-load response = sum of
// demands; the bound per station is its per-server demand), or +Inf with
// no positive demand.
func SaturationKnee(stations []Station, think time.Duration) float64 {
	var r0 time.Duration
	dmax := 0.0
	for _, s := range stations {
		r0 += s.Demand
		if d := s.Demand.Seconds() / float64(s.servers()); d > dmax {
			dmax = d
		}
	}
	if dmax <= 0 {
		return math.Inf(1)
	}
	return (think + r0).Seconds() / dmax
}
