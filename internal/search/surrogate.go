// Package search implements a budgeted optimizer over the soft-resource
// configuration space: the (Apache workers × Tomcat threads × DB
// connections × workload) grid whose exhaustive exploration the paper
// performs by hand (Figs. 2–6, Table I). The optimizer pre-ranks candidate
// allocations with the closed-network MVA surrogate from internal/queuing,
// spends its simulation-trial budget by successive halving over a workload
// ladder, and steers mutation of the survivors with the bottleneck
// verdicts of internal/obs — growing a pool attributed as the software
// bottleneck (the Fig. 2 under-allocation signature, Algorithm 1's
// doubling step) and shrinking a pool implicated in GC over-allocation
// (the Fig. 5 signature). Output is a Pareto frontier of goodput versus
// total allocated soft resources per SLA threshold, plus a log explaining
// every prune and mutation.
package search

import (
	"fmt"
	"math"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/jvm"
	"github.com/softres/ntier/internal/queuing"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// Surrogate is the analytic stand-in for a simulation trial: a closed
// interactive queueing network calibrated from one measured trial via the
// utilization law, extended with the two soft-resource effects the plain
// product-form model misses — concurrency caps from finite pools and the
// GC inflation of JVM-tier demand under over-allocation.
type Surrogate struct {
	HW    testbed.Hardware
	Think time.Duration

	// Per-request CPU demand of each tier, summed across the tier's nodes
	// and excluding GC overhead (the GC model adds it back per allocation).
	WebDemand, AppDemand, MidDemand, DBDemand time.Duration
	// DiskDemand is the per-request database disk demand.
	DiskDemand time.Duration

	// Residual per-request latency not visible to the utilization law
	// (network hops, dispatch waits): measured tier residence minus the
	// CPU-only zero-load residence of everything downstream of that tier.
	// LatFull is seen from Apache (the whole request), LatApp from a Tomcat
	// thread, LatMid from a C-JDBC connection (summed over the request's
	// queries). These delays inflate pool holding times, so the concurrency
	// cap of a pool is far tighter than CPU demands alone suggest.
	LatFull, LatApp, LatMid time.Duration

	// QueriesPerReq is the measured number of C-JDBC queries per request.
	QueriesPerReq float64

	// GC model mirrors of the simulator's JVM configuration and the
	// workload's per-request allocation (MiB) at each JVM tier, C-JDBC's
	// summed over the request's queries (tier.DeclaredDemand).
	AppJVM, MidJVM           jvm.Config
	AllocAppMiB, AllocMidMiB float64
}

// Calibrate builds a surrogate from one measured trial via the utilization
// law (D = U/X per node, summed per tier). The calibration trial should
// run below saturation with a generous allocation, where GC and pool
// queueing are negligible and the utilization law identifies pure demands;
// measured GC overhead is subtracted from the CPU demand so the surrogate
// does not double-count it when its own GC model adds it back.
func Calibrate(res *experiment.Result) (*Surrogate, error) {
	x := res.Throughput()
	if x <= 0 {
		return nil, fmt.Errorf("search: calibration trial measured no throughput")
	}
	tierDemand := func(ss []experiment.ServerStats) time.Duration {
		sum := 0.0
		for _, s := range ss {
			u := s.CPUUtil - s.GC.GCFraction
			if u < 0 {
				u = 0
			}
			sum += u
		}
		return time.Duration(sum / x * float64(time.Second))
	}
	disk := 0.0
	for _, s := range res.MySQL {
		disk += s.DiskUtil
	}
	// Throughput-weighted mean residence and total visit rate per tier.
	tierRTT := func(ss []experiment.ServerStats) (time.Duration, float64) {
		var wsum, tp float64
		for _, s := range ss {
			wsum += s.TP * s.RTT.Seconds()
			tp += s.TP
		}
		if tp <= 0 {
			return 0, 0
		}
		return time.Duration(wsum / tp * float64(time.Second)), tp
	}
	declared := tier.DeclaredDemand(res.Config.Mix)
	s := &Surrogate{
		HW:          res.Config.Testbed.Hardware,
		Think:       res.Config.ThinkMean,
		WebDemand:   tierDemand(res.Apache),
		AppDemand:   tierDemand(res.Tomcat),
		MidDemand:   tierDemand(res.CJDBC),
		DBDemand:    tierDemand(res.MySQL),
		DiskDemand:  time.Duration(disk / x * float64(time.Second)),
		AppJVM:      tier.DefaultTomcatConfig(0, 0).JVM, // the heap does not depend on the pools
		MidJVM:      tier.DefaultCJDBCConfig().JVM,
		AllocAppMiB: declared.AllocAppMiB,
		AllocMidMiB: declared.AllocMidMiB,
	}
	// Residual latencies: what a pool holder actually waits for beyond the
	// CPU-only zero-load residence of its downstream subnetwork. The
	// calibration trial runs below saturation, so measured residence ≈
	// zero-load residence + fixed latency.
	webRTT, _ := tierRTT(res.Apache)
	appRTT, _ := tierRTT(res.Tomcat)
	midRTT, midTP := tierRTT(res.CJDBC)
	s.QueriesPerReq = 1
	if midTP > 0 {
		s.QueriesPerReq = midTP / x
	}
	residual := func(rtt, r0 time.Duration) time.Duration {
		if rtt <= r0 {
			return 0
		}
		return rtt - r0
	}
	s.LatFull = residual(webRTT, s.WebDemand+s.AppDemand+s.MidDemand+s.DBDemand+s.DiskDemand)
	s.LatApp = residual(appRTT, s.AppDemand+s.MidDemand+s.DBDemand+s.DiskDemand)
	// A request holds connections for all of its queries in sequence.
	holdMid := time.Duration(s.QueriesPerReq * float64(midRTT))
	s.LatMid = residual(holdMid, s.MidDemand+s.DBDemand+s.DiskDemand)
	return s, nil
}

// Prediction is the surrogate's estimate for one (allocation, workload)
// point.
type Prediction struct {
	Throughput float64
	Response   time.Duration // mean residence excluding think time
	// AppGCFrac and MidGCFrac are the predicted GC shares of the Tomcat
	// and C-JDBC CPUs (the Fig. 5 over-allocation penalty).
	AppGCFrac, MidGCFrac float64
	// Limit names the pool capping throughput ("web-threads",
	// "app-threads", "app-conns"), or "" when hardware limits.
	Limit string
}

// Goodput estimates requests/s within the SLA threshold. The response-time
// distribution is approximated as exponential with the predicted mean —
// crude, but smooth and monotone, which is all the ranking needs.
func (p Prediction) Goodput(sla time.Duration) float64 {
	r := p.Response.Seconds()
	if r <= 0 {
		return p.Throughput
	}
	return p.Throughput * (1 - math.Exp(-sla.Seconds()/r))
}

// gcFraction predicts the stop-the-world share of a JVM's CPU given the
// resident slot count and the process's allocation rate, from
// internal/jvm's model: a collection fires per headroom MiB allocated and
// pauses for jvm.Pause of the live set.
func gcFraction(cfg jvm.Config, slots int, allocRate float64) float64 {
	if allocRate <= 0 {
		return 0
	}
	live := cfg.LiveMiB(slots)
	frac := jvm.Pause(live).Seconds() * allocRate / cfg.HeadroomMiB(live)
	if frac > 0.9 {
		frac = 0.9 // a thrashing collector still makes some progress
	}
	return frac
}

// Predict estimates throughput, response time, and the binding constraint
// for one allocation at one workload. Multi-node tiers are m-server
// stations (Seidmann); each pool caps throughput at the MVA capacity of
// the subnetwork its holders occupy, evaluated at the pool's total
// capacity (a closed subnetwork with zero think time); JVM-tier demands
// are inflated by the predicted GC share, solved to a fixed point.
func (s *Surrogate) Predict(soft testbed.SoftAlloc, users int) (Prediction, error) {
	if err := soft.Validate(); err != nil {
		return Prediction{}, err
	}
	if users <= 0 {
		return Prediction{}, fmt.Errorf("search: non-positive workload %d", users)
	}
	appSlots := soft.AppThreads + soft.AppConns     // per Tomcat JVM
	midSlots := s.HW.App * soft.AppConns / s.HW.Mid // upstream conns per C-JDBC JVM
	webCap := s.HW.Web * soft.WebThreads            // concurrent requests past Apache
	appCap := s.HW.App * soft.AppThreads            // concurrent requests in Tomcat+down
	connCap := s.HW.App * soft.AppConns             // concurrent requests in C-JDBC+down
	pred := Prediction{}
	x := 0.0
	for iter := 0; iter < 12; iter++ {
		pred.AppGCFrac = gcFraction(s.AppJVM, appSlots, x*s.AllocAppMiB/float64(s.HW.App))
		pred.MidGCFrac = gcFraction(s.MidJVM, midSlots, x*s.AllocMidMiB/float64(s.HW.Mid))
		web := queuing.Station{Name: "web", Demand: s.WebDemand, Servers: s.HW.Web}
		app := queuing.Station{
			Name:    "app",
			Demand:  time.Duration(float64(s.AppDemand) / (1 - pred.AppGCFrac)),
			Servers: s.HW.App,
		}
		mid := queuing.Station{
			Name:    "mid",
			Demand:  time.Duration(float64(s.MidDemand) / (1 - pred.MidGCFrac)),
			Servers: s.HW.Mid,
		}
		db := queuing.Station{Name: "db", Demand: s.DBDemand, Servers: s.HW.DB}
		disk := queuing.Station{Name: "disk", Demand: s.DiskDemand, Servers: s.HW.DB}
		all := []queuing.Station{web, app, mid, db, disk}

		// The residual latency rides in the MVA think time: it delays
		// requests without occupying a queueing station, exactly like think.
		full, err := queuing.MVA(all, s.Think+s.LatFull, users)
		if err != nil {
			return Prediction{}, err
		}
		caps := []struct {
			name string
			pop  int
			lat  time.Duration
			sub  []queuing.Station
		}{
			{"web-threads", webCap, s.LatFull, all},
			{"app-threads", appCap, s.LatApp, []queuing.Station{app, mid, db, disk}},
			{"app-conns", connCap, s.LatMid, []queuing.Station{mid, db, disk}},
		}
		xNew, limit := full.Throughput, ""
		for _, c := range caps {
			r, err := queuing.MVA(c.sub, c.lat, c.pop)
			if err != nil {
				return Prediction{}, err
			}
			if r.Throughput < xNew {
				xNew, limit = r.Throughput, c.name
			}
		}
		pred.Throughput, pred.Limit = xNew, limit
		pred.Response = full.Response + s.LatFull
		if limit != "" {
			// The pool is the bottleneck: clients queue for admission and
			// the interactive response-time law governs the residence.
			r := time.Duration(float64(users)/xNew*float64(time.Second)) - s.Think
			if r > pred.Response {
				pred.Response = r
			}
		}
		if math.Abs(xNew-x) < 1e-6*(1+xNew) {
			break
		}
		x = xNew
	}
	return pred, nil
}

// Score is the surrogate's ranking objective for one allocation: the best
// predicted goodput at the SLA across the workload axis.
func (s *Surrogate) Score(soft testbed.SoftAlloc, workloads []int, sla time.Duration) (float64, error) {
	best := 0.0
	for _, wl := range workloads {
		p, err := s.Predict(soft, wl)
		if err != nil {
			return 0, err
		}
		if g := p.Goodput(sla); g > best {
			best = g
		}
	}
	return best, nil
}
