// Package ntier is a simulation testbed and auto-tuner for soft-resource
// allocation in n-tier applications, reproducing "The Impact of Soft
// Resource Allocation on n-Tier Application Scalability" (Wang et al.,
// IEEE IPDPS 2011).
//
// The package exports the library's primary API:
//
//   - Build and run RUBBoS-style workloads against simulated 4-tier
//     topologies (Apache / Tomcat / C-JDBC / MySQL) described by the
//     paper's #W/#A/#C/#D hardware and Wt-At-Ac soft-allocation notation.
//   - Sweep workloads and pool sizes, measuring goodput under SLA
//     thresholds (Figs. 2-6, 10).
//   - Run the paper's three-procedure allocation algorithm (Algorithm 1)
//     to find the "Goldilocks" soft-resource allocation for a hardware
//     configuration, or search the allocation space on a trial budget.
//
// The ntier command (cmd/ntier) drives everything else — fault scenarios,
// chaos campaigns, elastic and fleet sweeps, observability reports.
//
// Quick start:
//
//	hw, _ := ntier.ParseHardware("1/2/1/2")
//	soft, _ := ntier.ParseSoftAlloc("400-15-6")
//	res, err := ntier.Run(ntier.RunConfig{
//		Testbed: ntier.TestbedOptions{Hardware: hw, Soft: soft, Seed: 1},
//		Users:   6000,
//	})
//	fmt.Println(res.Describe())
package ntier

import (
	"time"

	"github.com/softres/ntier/internal/core"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/search"
	"github.com/softres/ntier/internal/testbed"
)

// Configuration notation (paper §II-A).
type (
	// Hardware is a #W/#A/#C/#D provisioning (web / app / middleware / db
	// server counts).
	Hardware = testbed.Hardware
	// SoftAlloc is a Wt-At-Ac soft allocation (Apache workers / Tomcat
	// threads / Tomcat DB connections, per server).
	SoftAlloc = testbed.SoftAlloc
	// TestbedOptions configures a topology build, including ablation
	// switches (DisableGC, DisableFinWait) and the Tomcat and C-JDBC
	// model tuning hooks.
	TestbedOptions = testbed.Options
)

// ParseHardware parses "1/2/1/2".
func ParseHardware(s string) (Hardware, error) { return testbed.ParseHardware(s) }

// ParseSoftAlloc parses "400-15-6".
func ParseSoftAlloc(s string) (SoftAlloc, error) { return testbed.ParseSoftAlloc(s) }

// Experiments.
type (
	// RunConfig describes one measured trial.
	RunConfig = experiment.RunConfig
	// Result is the outcome of one trial: SLA collector, per-server
	// monitoring, optional Apache timeline.
	Result = experiment.Result
	// Curve is a goodput-vs-workload series.
	Curve = experiment.Curve
	// AllocPoint pairs a soft allocation with its workload sweep.
	AllocPoint = experiment.AllocPoint
	// Table renders figure data as fixed-width text.
	Table = experiment.Table
)

// Run executes one trial.
func Run(cfg RunConfig) (*Result, error) { return experiment.Run(cfg) }

// WorkloadSweep runs the trial at each user count.
func WorkloadSweep(base RunConfig, users []int) (*Curve, error) {
	return experiment.WorkloadSweep(base, users)
}

// AllocSweep sweeps a pool size across workload sweeps; combine with
// VaryAppThreads, VaryAppConns, or VaryWebThreads.
func AllocSweep(base RunConfig, users []int, sizes []int, vary func(SoftAlloc, int) SoftAlloc) ([]AllocPoint, error) {
	return experiment.AllocSweep(base, users, sizes, vary)
}

// Pool-variation helpers for AllocSweep.
var (
	VaryAppThreads = experiment.VaryAppThreads
	VaryAppConns   = experiment.VaryAppConns
	VaryWebThreads = experiment.VaryWebThreads
)

// CurveTable renders curves at one SLA threshold.
func CurveTable(title string, th time.Duration, curves ...*Curve) *Table {
	return experiment.CurveTable(title, th, curves...)
}

// The allocation algorithm (paper §IV).
type (
	// TunerConfig configures Algorithm 1.
	TunerConfig = core.Config
	// TunerReport is the algorithm's Table-I style output.
	TunerReport = core.Report
)

// Tune runs the three-procedure soft-resource allocation algorithm.
func Tune(cfg TunerConfig) (*TunerReport, error) { return core.Tune(cfg) }

// Surrogate-guided allocation search (see `ntier search` and
// EXPERIMENTS.md): a budgeted optimizer over the soft-resource
// configuration space that pre-ranks candidates with a calibrated MVA
// surrogate, spends its trial budget by successive halving over a workload
// ladder, and steers mutation with the obs bottleneck verdicts.
type (
	// SearchOptions configures one budgeted search.
	SearchOptions = search.Options
	// SearchOutcome is a search result: the best allocation, every
	// measured point, per-threshold Pareto frontiers, and a decision log.
	SearchOutcome = search.Outcome
)

// Search runs the budgeted optimizer.
func Search(opts SearchOptions) (*SearchOutcome, error) { return search.Run(opts) }
