// Package ntier is a simulation testbed and auto-tuner for soft-resource
// allocation in n-tier applications, reproducing "The Impact of Soft
// Resource Allocation on n-Tier Application Scalability" (Wang et al.,
// IEEE IPDPS 2011).
//
// The package re-exports the library's primary API:
//
//   - Build and run RUBBoS-style workloads against simulated 4-tier
//     topologies (Apache / Tomcat / C-JDBC / MySQL) described by the
//     paper's #W/#A/#C/#D hardware and Wt-At-Ac soft-allocation notation.
//   - Measure goodput/badput under SLA thresholds, hardware and
//     soft-resource utilization, JVM garbage collection, and per-server
//     request logs.
//   - Run the paper's three-procedure allocation algorithm (Algorithm 1)
//     to find the "Goldilocks" soft-resource allocation for a hardware
//     configuration.
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
	"context"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/chaos"
	"github.com/softres/ntier/internal/core"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/rng"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/search"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
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
	// switches (DisableGC, DisableFinWait) and model tuning hooks.
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
	// ServerStats is one server's monitoring record.
	ServerStats = experiment.ServerStats
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

// ForEachIndex is the bounded parallel executor behind the sweeps: it runs
// fn(0..n-1) on up to parallelism workers (0 = one per CPU) with
// deterministic index-ordered results and lowest-index first-error
// cancellation. Exposed for custom experiment grids; set
// RunConfig.Parallelism to control the built-in sweeps instead.
func ForEachIndex(n, parallelism int, fn func(i int) error) error {
	return experiment.ForEachIndex(n, parallelism, fn)
}

// ForEachIndexCtx is ForEachIndex honoring a context: once ctx is done no
// new indices start, in-flight work finishes, and the context's error is
// returned unless an earlier trial error takes precedence.
func ForEachIndexCtx(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	return experiment.ForEachIndexCtx(ctx, n, parallelism, fn)
}

// Crash-safe campaigns (set RunConfig.State; see EXPERIMENTS.md).
type (
	// RunState is a run-state directory holding the write-ahead journals
	// of a campaign, enabling interrupt/crash + resume.
	RunState = experiment.State
	// PanicError is a panicking trial contained as a per-trial error.
	PanicError = experiment.PanicError
	// TimeoutError reports a trial killed by RunConfig.TrialTimeout.
	TimeoutError = experiment.TimeoutError
)

// ErrFingerprintMismatch reports a resume attempt whose flags differ from
// the run that created the state directory.
var ErrFingerprintMismatch = experiment.ErrFingerprintMismatch

// OpenState creates or (with resume) reopens a run-state directory for
// the invocation identified by fingerprint.
func OpenState(dir, fingerprint string, resume bool) (*RunState, error) {
	return experiment.OpenState(dir, fingerprint, resume)
}

// Fingerprint hashes the trial-determining parts of a configuration plus
// extra sweep axes into a short stable identifier for OpenState.
func Fingerprint(base RunConfig, extra ...string) string {
	return experiment.Fingerprint(base, extra...)
}

// IsTrialFailure reports whether err is a contained per-trial failure (a
// panic or watchdog timeout) rather than a campaign-level error.
func IsTrialFailure(err error) bool { return experiment.IsTrialFailure(err) }

// CurveTable renders curves at one SLA threshold.
func CurveTable(title string, th time.Duration, curves ...*Curve) *Table {
	return experiment.CurveTable(title, th, curves...)
}

// CurveCountTable renders a per-trial counter (errors, shed, abandoned,
// late) for several curves against the workload axis.
func CurveCountTable(title string, count func(*Result) uint64, curves ...*Curve) *Table {
	return experiment.CurveCountTable(title, count, curves...)
}

// Open-system arrivals and overload survival (see EXPERIMENTS.md). An
// ArrivalSpec on RunConfig.Arrivals replaces the closed-loop user
// population with an external arrival process, so offered load can exceed
// capacity; RunConfig.Deadline arms end-to-end deadline propagation; the
// AdmissionConfig inside a ResilienceConfig arms the adaptive web-tier
// admission controller.
type (
	// ArrivalSpec describes an arrival process (Poisson, schedule, MMPP).
	ArrivalSpec = trace.ArrivalSpec
	// ArrivalSource draws one process's inter-arrival gaps.
	ArrivalSource = trace.ArrivalSource
	// ArrivalPhase is one segment of a piecewise arrival schedule.
	ArrivalPhase = trace.Phase
	// MMPPState is one state of a Markov-modulated Poisson process.
	MMPPState = trace.MMPPState
	// AdmissionConfig tunes the adaptive web-tier admission controller.
	AdmissionConfig = tier.AdmissionConfig
	// OverloadCurve is a goodput-vs-offered-rate series.
	OverloadCurve = experiment.OverloadCurve
	// FlashCrowdConfig describes one flash-crowd trial.
	FlashCrowdConfig = experiment.FlashCrowdConfig
	// FlashCrowdResult is a flash-crowd trial's timeline and drain stats.
	FlashCrowdResult = experiment.FlashCrowdResult
	// FlashPoint is one timeline bucket of a flash-crowd trial.
	FlashPoint = experiment.FlashPoint
)

// Arrival-process constructors for RunConfig.Arrivals.
var (
	// PoissonArrivals is a constant-rate Poisson process.
	PoissonArrivals = trace.Poisson
	// ArrivalSchedule is a piecewise constant/ramp rate schedule.
	ArrivalSchedule = trace.Schedule
	// FlashCrowdArrivals is a base rate with a bounded spike.
	FlashCrowdArrivals = trace.FlashCrowd
	// MMPPArrivals is a cyclic Markov-modulated Poisson process.
	MMPPArrivals = trace.MMPP
)

// DefaultAdmissionConfig returns the adaptive admission controller's
// defaults (50ms worker-wait target, 500ms control interval, write
// protection on).
func DefaultAdmissionConfig() AdmissionConfig { return tier.DefaultAdmissionConfig() }

// OverloadProtection returns the full overload-survival policy: default
// resilience plus the adaptive admission controller.
func OverloadProtection() *ResilienceConfig { return experiment.OverloadProtection() }

// OverloadSweep runs base once per offered rate (Poisson arrivals) and
// returns the goodput-vs-offered-load curve.
func OverloadSweep(base RunConfig, rates []float64) (*OverloadCurve, error) {
	return experiment.OverloadSweep(base, rates)
}

// RunFlashCrowd executes one flash-crowd trial.
func RunFlashCrowd(cfg FlashCrowdConfig) (*FlashCrowdResult, error) {
	return experiment.RunFlashCrowd(cfg)
}

// Workload mixes.
var (
	// BrowseOnlyMix is RUBBoS's read-only navigation graph.
	BrowseOnlyMix = rubbos.BrowseOnlyMix
	// ReadWriteMix adds comment posting and the author workflow.
	ReadWriteMix = rubbos.ReadWriteMix
)

// StandardThresholds are the paper's SLA bounds (0.5s, 1s, 2s).
var StandardThresholds = sla.StandardThresholds

// The allocation algorithm (paper §IV).
type (
	// TunerConfig configures Algorithm 1.
	TunerConfig = core.Config
	// TunerReport is the algorithm's Table-I style output.
	TunerReport = core.Report
)

// Tune runs the three-procedure soft-resource allocation algorithm.
func Tune(cfg TunerConfig) (*TunerReport, error) { return core.Tune(cfg) }

// Request tracing (set RunConfig.TraceEvery).
type (
	// Trace is one request's per-phase record.
	Trace = trace.Trace
	// PhaseBreakdown is one row of a where-did-the-time-go analysis.
	PhaseBreakdown = trace.PhaseBreakdown
)

// TraceBreakdown aggregates span time by server kind and phase.
func TraceBreakdown(traces []*Trace) []PhaseBreakdown { return trace.Breakdown(traces) }

// FormatBreakdown renders a breakdown table.
func FormatBreakdown(bs []PhaseBreakdown) string { return trace.FormatBreakdown(bs) }

// Bottleneck diagnosis (the multi-bottleneck analysis the paper defers to
// future work; set RunConfig.WindowUtil to collect the input series).
type (
	// Diagnosis classifies a trial's saturation pattern.
	Diagnosis = core.Diagnosis
	// BottleneckConfig tunes the classifier.
	BottleneckConfig = core.BottleneckConfig
)

// ClassifyBottlenecks analyzes per-window utilization series.
func ClassifyBottlenecks(series map[string][]float64, cfg BottleneckConfig) Diagnosis {
	return core.ClassifyBottlenecks(series, cfg)
}

// Diagnose runs one monitored trial and classifies its bottleneck pattern.
func Diagnose(rc RunConfig) (Diagnosis, error) { return core.Diagnose(rc) }

// Run-wide observability (set RunConfig.ObsDir; see OBSERVABILITY.md).
// The obs layer records per-node utilization/GC timelines and pool
// occupancy series on a fixed simulated-time grid and attributes
// bottlenecks per workload step, reproducing the paper's critical-
// resource detection (Fig. 2 software bottleneck, Fig. 5 GC
// over-allocation, Fig. 8 buffering starvation).
type (
	// ObsConfig tunes the recorder: sampling grid, memory bound, SLA.
	ObsConfig = obs.Config
	// TrialObs is one trial's observability snapshot (summary + series).
	TrialObs = obs.TrialObs
	// TrialSummary is the per-trial aggregate the analyzer consumes.
	TrialSummary = obs.TrialSummary
	// JudgeConfig holds the bottleneck-detection thresholds.
	JudgeConfig = obs.JudgeConfig
	// Verdict classifies one trial (saturated hardware, soft bottlenecks).
	Verdict = obs.Verdict
	// StepVerdict is one workload step's bottleneck attribution.
	StepVerdict = obs.StepVerdict
	// ObsSignature is one detected figure pattern (Fig. 2/5/8).
	ObsSignature = obs.Signature
)

// Judge classifies one trial summary against the detection thresholds.
func Judge(s TrialSummary, cfg JudgeConfig) Verdict { return obs.Judge(s, cfg) }

// Summarize reduces a trial result to the analyzer's input.
func Summarize(res *Result, sla time.Duration) TrialSummary {
	return experiment.Summarize(res, sla)
}

// BottleneckSteps attributes every workload step of a ramped run.
func BottleneckSteps(trials []TrialSummary, cfg JudgeConfig) []StepVerdict {
	return obs.Steps(trials, cfg)
}

// DetectSignatures runs the Fig. 2/5/8 detectors over a ramped run.
func DetectSignatures(trials []TrialSummary, cfg JudgeConfig) []ObsSignature {
	return obs.DetectSignatures(trials, cfg)
}

// ReadObsDir loads every observability snapshot recorded in dir.
func ReadObsDir(dir string) ([]*TrialObs, error) { return obs.ReadDir(dir) }

// Fault injection and resilience (extension beyond the paper; see
// EXPERIMENTS.md). A FaultPlan schedules deterministic faults against the
// simulated topology; ResilienceConfig arms timeouts, retries with
// backoff, circuit breakers, and load shedding in the request pipeline.
type (
	// FaultPlan is a declarative schedule of fault events.
	FaultPlan = fault.Plan
	// FaultEvent is one timed fault (crash, brown-out, net spike, leak).
	FaultEvent = fault.Event
	// FaultRecord is one injector action that was actually applied.
	FaultRecord = fault.Record
	// ResilienceConfig tunes the per-server resilience layer.
	ResilienceConfig = tier.ResilienceConfig
	// ResilienceStats counts sheds, timeouts, retries, and breaker opens.
	ResilienceStats = tier.ResilienceStats
	// ScenarioConfig describes one fault-injection trial.
	ScenarioConfig = experiment.ScenarioConfig
	// ScenarioResult is a fault trial's timeline and recovery statistics.
	ScenarioResult = experiment.ScenarioResult
	// ScenarioPoint is one timeline bucket of a fault trial.
	ScenarioPoint = experiment.ScenarioPoint
	// Scenario is a named, self-configuring fault scenario.
	Scenario = experiment.Scenario
)

// Fault-event constructors for FaultPlan.Events.
var (
	// Crash takes a server down between start and end.
	Crash = fault.Crash
	// Brownout runs a node's CPU at the given speed fraction.
	Brownout = fault.Brownout
	// NetSpike adds extra latency to every traversal of a link.
	NetSpike = fault.NetSpike
	// ConnLeak leaks units from a named pool until reverted.
	ConnLeak = fault.ConnLeak
)

// DefaultResilienceConfig returns the sane resilience policy: bounded
// waits, bounded retries with jittered backoff, breakers, load shedding.
func DefaultResilienceConfig() ResilienceConfig { return tier.DefaultResilienceConfig() }

// RetryStormResilience returns the pathological anti-pattern policy
// (unbounded waits, immediate retries, no breaker) used to demonstrate
// retry amplification.
func RetryStormResilience() *ResilienceConfig { return experiment.RetryStormResilience() }

// RunScenario executes one fault-injection trial.
func RunScenario(cfg ScenarioConfig) (*ScenarioResult, error) { return experiment.RunScenario(cfg) }

// Scenarios returns the built-in named fault scenarios.
func Scenarios() []Scenario { return experiment.Scenarios() }

// ScenarioByName resolves a built-in fault scenario.
func ScenarioByName(name string) (Scenario, error) { return experiment.ScenarioByName(name) }

// Surrogate-guided allocation search (see cmd/ntier-search and
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
	// SearchPoint is one measured (allocation, workload) trial.
	SearchPoint = search.Point
	// ParetoPoint is one non-dominated allocation at one SLA threshold.
	ParetoPoint = search.FrontierPoint
	// MVASurrogate is the calibrated analytic model behind the pre-ranking.
	MVASurrogate = search.Surrogate
	// SurrogatePrediction is the surrogate's estimate for one point.
	SurrogatePrediction = search.Prediction
)

// Search runs the budgeted optimizer.
func Search(opts SearchOptions) (*SearchOutcome, error) { return search.Run(opts) }

// CalibrateSurrogate builds the MVA surrogate from one measured trial run
// below saturation with a generous allocation.
func CalibrateSurrogate(res *Result) (*MVASurrogate, error) { return search.Calibrate(res) }

// SearchTotalUnits is the search's cost axis: total resident pool units of
// an allocation across the hardware.
func SearchTotalUnits(hw Hardware, soft SoftAlloc) int { return search.TotalUnits(hw, soft) }

// Elastic reallocation (see cmd/ntier-elastic and ELASTICITY.md): a live
// policy controller that resizes every soft pool mid-run under a
// total-units budget, evaluated against the static baseline over day-shaped
// traffic traces on goodput per soft-resource-unit.
type (
	// ElasticPolicy names a reallocation policy (STATIC, UNIFORM, TOP_JOB,
	// SOFTMAX).
	ElasticPolicy = adaptive.Policy
	// ElasticConfig tunes the elastic controller: interval, budget, rate
	// limit, hysteresis deadband, cooldown, and the policy oracles.
	ElasticConfig = adaptive.ElasticConfig
	// ElasticDecision is one applied resize in the decision log.
	ElasticDecision = adaptive.ElasticDecision
	// ElasticController is the attached live controller.
	ElasticController = adaptive.ElasticController
	// ElasticTrace is one named traffic trace of a sweep grid.
	ElasticTrace = experiment.ElasticTrace
	// ElasticSweepConfig describes an elastic-vs-static campaign.
	ElasticSweepConfig = experiment.ElasticSweepConfig
	// ElasticResult is one (policy, trace) trial outcome.
	ElasticResult = experiment.ElasticResult
	// ElasticOutcome is the full policy x trace grid.
	ElasticOutcome = experiment.ElasticOutcome
	// ElasticPoint is one timeline bucket of an elastic trial.
	ElasticPoint = experiment.ElasticPoint
)

// The built-in elastic policies.
const (
	ElasticStatic  = adaptive.PolicyStatic
	ElasticUniform = adaptive.PolicyUniform
	ElasticTopJob  = adaptive.PolicyTopJob
	ElasticSoftmax = adaptive.PolicySoftmax
)

// ParseElasticPolicy resolves a policy name (case-insensitive).
func ParseElasticPolicy(s string) (ElasticPolicy, error) { return adaptive.ParsePolicy(s) }

// AttachElastic starts the elastic controller on a freshly built testbed.
func AttachElastic(tb *testbed.Testbed, cfg ElasticConfig) (*ElasticController, error) {
	return adaptive.AttachElastic(tb, cfg)
}

// FormatElasticDecisions renders a decision log, one line per decision.
func FormatElasticDecisions(ds []ElasticDecision) string { return adaptive.FormatDecisions(ds) }

// RunElastic executes one elastic trial.
func RunElastic(cfg ElasticSweepConfig, policy ElasticPolicy, tr ElasticTrace) (*ElasticResult, error) {
	return experiment.RunElastic(cfg, policy, tr)
}

// ElasticSweep runs the policy x trace grid, journaled and resumable.
func ElasticSweep(cfg ElasticSweepConfig) (*ElasticOutcome, error) {
	return experiment.ElasticSweep(cfg)
}

// ElasticUsersAtFor derives SOFTMAX's closed-equivalent population oracle
// from a trace whose schedule is known in advance (nil when it is not).
func ElasticUsersAtFor(spec ArrivalSpec) func(time.Duration) int {
	return experiment.UsersAtFor(spec)
}

// DiurnalArrivals is a day-shaped rate profile: night trough, morning ramp,
// midday plateau, evening descent.
func DiurnalArrivals(low, high float64, day time.Duration) ArrivalSpec {
	return trace.Diurnal(low, high, day)
}

// Chaos campaigns (see cmd/ntier-chaos and EXPERIMENTS.md): seeded fault
// fuzzing over the full topology surface, judged by conservation
// invariants and a recovery oracle, with failing plans shrunk to minimal
// reproducers.
type (
	// ChaosTrialConfig describes one judged chaos trial: topology,
	// workload, measurement timeline, and oracle tolerances.
	ChaosTrialConfig = chaos.TrialConfig
	// ChaosVerdict is a judged trial: failure class, oracle violations,
	// and baseline/recovery window statistics.
	ChaosVerdict = chaos.Verdict
	// ChaosWindowStats summarizes one measurement window.
	ChaosWindowStats = chaos.WindowStats
	// ChaosTargetSet is the discovered fault surface of a topology.
	ChaosTargetSet = chaos.TargetSet
	// ChaosGenConfig configures the seeded fault-plan fuzzer.
	ChaosGenConfig = chaos.GenConfig
	// ChaosCampaignConfig describes a seeds × plans fuzzing campaign.
	ChaosCampaignConfig = chaos.CampaignConfig
	// ChaosOutcome is one campaign trial: plan, verdict, and (for
	// failures) the minimized reproducer.
	ChaosOutcome = chaos.Outcome
	// ChaosShrinkResult is a minimized plan with its final verdict.
	ChaosShrinkResult = chaos.ShrinkResult
)

// RunChaosTrial executes one fault plan through a full judged trial.
func RunChaosTrial(cfg ChaosTrialConfig, plan FaultPlan) (*ChaosVerdict, error) {
	return chaos.RunTrial(cfg, plan)
}

// RunChaosCampaign fuzzes Seeds × PlansPerSeed fault plans, shrinking
// every failure to a minimal reproducer.
func RunChaosCampaign(cfg ChaosCampaignConfig) ([]ChaosOutcome, error) {
	return chaos.RunCampaign(cfg)
}

// DiscoverChaosTargets builds a throwaway testbed and extracts its fault
// surface (crashable nodes, CPUs, pools, links).
func DiscoverChaosTargets(opts TestbedOptions) (ChaosTargetSet, error) { return chaos.Discover(opts) }

// ShrinkPlan minimizes a failing fault plan delta-debugging style while
// the run function keeps reproducing the same failure class.
func ShrinkPlan(plan FaultPlan, class string, budget int, run func(FaultPlan) (*ChaosVerdict, error)) (ChaosShrinkResult, error) {
	return chaos.Shrink(plan, class, budget, run)
}

// Multi-tenant fleet consolidation (see cmd/ntier-fleet and DESIGN.md):
// several independent application stacks co-located on one shared node
// pool, with placement strategies, per-tenant SLOs, and noisy-neighbor
// interference measurement.
type (
	// FleetPlacement selects the server-to-node mapping strategy
	// (PACKED, SPREAD, GREEDY).
	FleetPlacement = fleet.Placement
	// FleetTenantSpec describes one tenant stack: topology, soft
	// allocation, load, and SLO.
	FleetTenantSpec = fleet.TenantSpec
	// FleetOptions configures a fleet build: pool, roster, placement,
	// and soft-resource budget.
	FleetOptions = fleet.Options
	// Fleet is a built multi-tenant deployment sharing one DES run.
	Fleet = fleet.Fleet
	// FleetAssignment maps one tenant server onto one pool node.
	FleetAssignment = fleet.Assignment
	// FleetTierDemands is the per-tier demand estimate GREEDY scores
	// with; calibrate from the MVA surrogate for sharper packing.
	FleetTierDemands = fleet.TierDemands
	// FleetSweepConfig describes a placement x tenants x load campaign.
	FleetSweepConfig = experiment.FleetSweepConfig
	// FleetResult is one fleet trial with per-tenant SLO outcomes.
	FleetResult = experiment.FleetResult
	// FleetTenantResult is one tenant's outcome within a fleet trial.
	FleetTenantResult = experiment.FleetTenantResult
	// FleetOutcome is the full sweep grid.
	FleetOutcome = experiment.FleetOutcome
	// InterferenceMatrix is the aggressor x victim goodput-loss matrix.
	InterferenceMatrix = experiment.InterferenceMatrix
)

// Placement strategies.
const (
	FleetPacked = fleet.PlacementPacked
	FleetSpread = fleet.PlacementSpread
	FleetGreedy = fleet.PlacementGreedy
)

// ParsePlacement resolves a placement name (case-insensitive).
func ParsePlacement(s string) (FleetPlacement, error) { return fleet.ParsePlacement(s) }

// FleetPlacements lists every placement strategy.
func FleetPlacements() []FleetPlacement { return fleet.Placements() }

// DefaultTierDemands is the ballpark browsing-mix demand estimate.
func DefaultTierDemands() FleetTierDemands { return fleet.DefaultTierDemands() }

// BuildFleet plans the placement and constructs every tenant stack.
func BuildFleet(opts FleetOptions) (*Fleet, error) { return fleet.Build(opts) }

// PlanFleet computes the placement without building (pure, deterministic).
func PlanFleet(opts FleetOptions) ([]FleetAssignment, error) { return fleet.Plan(opts) }

// FormatFleetPlan renders a placement plan grouped by node.
func FormatFleetPlan(plan []FleetAssignment) string { return fleet.FormatPlan(plan) }

// RunFleet executes one consolidation trial.
func RunFleet(cfg FleetSweepConfig, p FleetPlacement, tenants int, scale float64) (*FleetResult, error) {
	return experiment.RunFleet(cfg, p, tenants, scale)
}

// FleetSweep runs the placement x tenant-count x load grid, journaled and
// resumable.
func FleetSweep(cfg FleetSweepConfig) (*FleetOutcome, error) { return experiment.FleetSweep(cfg) }

// FleetInterference measures the noisy-neighbor matrix for one placement.
func FleetInterference(cfg FleetSweepConfig, p FleetPlacement, scale float64) (*InterferenceMatrix, error) {
	return experiment.FleetInterference(cfg, p, scale)
}

// DiscoverFleetChaosTargets builds a throwaway fleet and extracts its
// merged, tenant-namespaced fault surface.
func DiscoverFleetChaosTargets(opts FleetOptions) (ChaosTargetSet, error) {
	return chaos.DiscoverFleet(opts)
}

// SubSeed derives an independent base seed for a named component from a
// parent seed (tenant seeds are SubSeed(fleet seed, "tenant/"+name)).
func SubSeed(seed uint64, key string) uint64 { return rng.SubSeed(seed, key) }
