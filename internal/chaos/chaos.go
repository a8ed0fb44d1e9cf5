// Package chaos fuzzes the simulated n-tier deployment with randomized
// fault plans and judges every run against two oracles. The paper's §III
// study shows soft-resource allocations — thread pools, connection pools —
// shifting the system bottleneck under steady load; the chaos campaign
// probes the same allocation pipeline under disturbance. Each trial is an
// experiment trial (experiment.RunDisturbed, the one trial protocol): it
// ramps the workload, measures a fault-free baseline window, replays a
// generated fault.Plan (crashes, brown-outs, latency spikes, connection
// leaks in overlapping windows), lets the system recover, then drains to
// quiescence and audits it:
//
//   - The conservation oracle checks the invariants the simulation must
//     restore once every fault has reverted and the workload has drained:
//     every issued request resolved (completed + failed + shed, zero in
//     flight), every resource.Pool back to inUse == 0 with its leak-adjusted
//     capacity restored, every CPU idle at full speed, the DES event queue
//     empty with zero live processes, and every occupancy histogram
//     accounting for the full stats interval (testbed.Testbed.Audit, which
//     gathers the audits of des.Env, resource.Pool, resource.CPU, the tier
//     servers and the workload). The structural audit also runs at the
//     plan's base and, as in every experiment trial, at the horizon.
//
//   - The recovery oracle compares a post-fault measurement window against
//     the pre-fault baseline: goodput and p95 response time must return
//     within a tolerance band, or the run is flagged metastable — the
//     degraded-steady-state failure mode that motivates studying allocation
//     resilience beyond the paper's Table-driven steady-state results.
//
// Failing plans are minimized by Shrink (delta debugging over events,
// windows, and magnitudes) into small reproducers that replay
// deterministically from their seed.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/metrics"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/testbed"
)

// Failure classes a verdict can carry; an empty class means the trial
// passed both oracles.
const (
	// ClassInvariant marks a conservation-invariant violation: state that
	// must be restored after drain was not (a leaked pool unit, a request
	// lost or double-counted, a live process after drain).
	ClassInvariant = "invariant"
	// ClassMetastable marks a recovery-oracle violation: the system kept
	// running but never returned to its baseline band after the faults
	// reverted.
	ClassMetastable = "metastable"
	// ClassPanic marks a trial whose simulation panicked — a model bug the
	// fuzzer surfaced. Panics are deterministic per plan, so they journal
	// and shrink like any other failure.
	ClassPanic = "panic"
)

// p95Slack is the recovery oracle's absolute p95 headroom over the scaled
// baseline, so sub-millisecond baselines don't flag on noise.
const p95Slack = 200 * time.Millisecond

// TrialConfig describes one chaos trial: the experiment trial it runs,
// and the measurement timeline wrapped around a fault plan.
type TrialConfig struct {
	// Run is the trial's deployment, workload and execution knobs; RunTrial
	// sets its Measure from the timeline below. Chaos trials are short:
	// zero values take 150 users, a 1s think time and a 5s ramp. Ctx and
	// TrialTimeout interrupt a wedged run; both resolve to errors (never
	// verdicts), so a resumed campaign retries them.
	Run experiment.RunConfig

	// Baseline is the fault-free measurement window between ramp end and
	// the plan's base instant (default 20s). Start-time jitter can only
	// shift a window by ±JitterFrac of its own offset, so no fault ever
	// reaches back into the baseline.
	Baseline time.Duration
	// Grace is the settle time between the last possible revert and the
	// recovery window (default 10s).
	Grace time.Duration
	// Recovery is the post-fault measurement window (default 20s).
	Recovery time.Duration
	// DrainBudget bounds the simulated time allowed for the stopped
	// workload to reach full quiescence (default 2m).
	DrainBudget time.Duration

	// GoodputTol is the allowed fractional goodput drop in the recovery
	// window relative to baseline (default 0.3).
	GoodputTol float64
	// P95Factor is the allowed p95 inflation factor over baseline
	// (default 2), with p95Slack of absolute headroom.
	P95Factor float64

	// LeakRestoreDeficit plants a bug for campaign self-validation: every
	// reverting connection-leak event restores that many units too few,
	// which the conservation oracle must catch. Requires an unjittered
	// plan (the planted revert is scheduled at the event's nominal end).
	LeakRestoreDeficit int
}

func (cfg *TrialConfig) applyDefaults() {
	if cfg.Run.Users == 0 {
		cfg.Run.Users = 150
	}
	if cfg.Run.ThinkMean == 0 {
		cfg.Run.ThinkMean = time.Second
	}
	if cfg.Run.RampUp == 0 {
		cfg.Run.RampUp = 5 * time.Second
	}
	if cfg.Baseline == 0 {
		cfg.Baseline = 20 * time.Second
	}
	if cfg.Grace == 0 {
		cfg.Grace = 10 * time.Second
	}
	if cfg.Recovery == 0 {
		cfg.Recovery = 20 * time.Second
	}
	if cfg.DrainBudget == 0 {
		cfg.DrainBudget = 2 * time.Minute
	}
	if cfg.GoodputTol == 0 {
		cfg.GoodputTol = 0.3
	}
	if cfg.P95Factor == 0 {
		cfg.P95Factor = 2
	}
}

// WindowStats summarizes one measurement window.
type WindowStats struct {
	Completions int           `json:"completions"`
	Errors      int           `json:"errors,omitempty"`
	Goodput     float64       `json:"goodput"` // successful pages per second
	P95         time.Duration `json:"p95"`     // 95th-percentile response time
}

// Verdict is the judged outcome of one chaos trial.
type Verdict struct {
	// Class is the failure class ("" = passed both oracles). Invariant
	// violations take precedence over metastability: lost state explains
	// degraded behaviour, not the other way around.
	Class      string   `json:"class,omitempty"`
	Violations []string `json:"violations,omitempty"`

	Baseline WindowStats `json:"baseline"`
	Recovery WindowStats `json:"recovery"`

	// Drained reports whether the run reached full quiescence (zero live
	// processes, empty event queue) within the drain budget.
	Drained bool `json:"drained"`
	// Faults counts injector actions applied (applies + reverts).
	Faults int `json:"faults"`
	// Requests is the workload's conservation record after the drain.
	Requests rubbos.Requests `json:"requests"`
}

// Failed reports whether either oracle flagged the trial.
func (v *Verdict) Failed() bool { return v.Class != "" }

// windowCollector accumulates one measurement window's response times.
type windowCollector struct {
	rts  metrics.Sample // successful response times, seconds
	errs int
}

func (c *windowCollector) stats(window time.Duration) WindowStats {
	ws := WindowStats{Completions: c.rts.Count(), Errors: c.errs}
	if window > 0 {
		ws.Goodput = float64(ws.Completions) / window.Seconds()
	}
	ws.P95 = time.Duration(c.rts.Percentile(95) * float64(time.Second))
	return ws
}

// RunTrial executes one chaos trial as an experiment trial whose measure
// leg runs from ramp end to the end of the recovery window: the
// disturbance replays the plan at the baseline's end, collects the
// baseline and recovery windows, and asks for the drain to quiescence,
// which the recovery oracle then judges with the audits. A panicking
// simulation becomes a ClassPanic verdict and a failed horizon audit a
// ClassInvariant one (both deterministic, journalable); cancellation and
// watchdog timeouts return as errors so campaigns retry them.
func RunTrial(cfg TrialConfig, plan fault.Plan) (*Verdict, error) {
	cfg.applyDefaults()
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if cfg.LeakRestoreDeficit > 0 && plan.JitterFrac != 0 {
		return nil, fmt.Errorf("chaos: LeakRestoreDeficit requires an unjittered plan (jitter %g)", plan.JitterFrac)
	}

	// Timeline. Jitter shifts a window by at most ±JitterFrac of its own
	// start offset, so every effective start stays ≥ (1-J)·start ≥ 0 —
	// after base, keeping the baseline window fault-free — and every
	// effective end stays ≤ (1+J)·LastEnd, bounding the recovery start.
	baselineStart := cfg.Run.RampUp
	base := baselineStart + cfg.Baseline
	jitterPad := time.Duration(plan.JitterFrac * float64(plan.LastEnd()))
	recoveryStart := base + plan.LastEnd() + jitterPad + cfg.Grace
	recoveryEnd := recoveryStart + cfg.Recovery

	var (
		baseline, recovery    windowCollector
		inj                   *fault.Injector
		invariant, metastable []string
	)
	arm := func(tb *testbed.Testbed) error {
		targets := tb.FaultTargets()
		inj = fault.NewInjector(tb.Env, targets, cfg.Run.Testbed.Seed)
		if err := inj.Schedule(base, plan); err != nil {
			return err
		}
		if cfg.LeakRestoreDeficit > 0 {
			// The planted bug: immediately after each connection-leak revert,
			// leak the deficit back — exactly what a revert path restoring too
			// few units would leave behind.
			for _, e := range plan.Events {
				if e.Kind == fault.KindConnLeak && e.End != 0 {
					pool := targets.Pools[e.Target]
					tb.Env.At(base+e.End+1, func() { pool.Leak(cfg.LeakRestoreDeficit) })
				}
			}
		}
		// Structural (any-instant) audit at the end of the clean baseline, a
		// pure read: a violation here is a model bug independent of the
		// plan's faults.
		tb.Env.At(base, func() {
			for _, aerr := range tb.Audit(false) {
				invariant = append(invariant, aerr.Error())
			}
		})
		return nil
	}
	observe := func(issued, rt time.Duration, rerr error) {
		done := issued + rt
		var win *windowCollector
		switch {
		case done >= baselineStart && done < base:
			win = &baseline
		case done >= recoveryStart && done < recoveryEnd:
			win = &recovery
		default:
			return
		}
		if rerr != nil {
			win.errs++
			return
		}
		win.rts.Add(rt.Seconds())
	}

	run := cfg.Run
	run.Measure = recoveryEnd - baselineStart
	_, q, err := experiment.RunDisturbed(run, experiment.Disturbance{Arm: arm, Observe: observe, Drain: cfg.DrainBudget})
	var pe *experiment.PanicError
	if errors.As(err, &pe) {
		ae, ok := pe.Value.(*experiment.AuditError)
		if !ok {
			return &Verdict{Class: ClassPanic, Violations: []string{pe.Error()}}, nil
		}
		for _, aerr := range ae.Violations {
			invariant = append(invariant, aerr.Error())
		}
		return &Verdict{Class: ClassInvariant, Violations: invariant}, nil
	}
	if err != nil {
		return nil, err
	}

	v := &Verdict{
		Baseline: baseline.stats(cfg.Baseline),
		Recovery: recovery.stats(cfg.Recovery),
		Drained:  q.Drained,
		Faults:   len(inj.Records()),
		Requests: q.Requests,
	}
	for _, aerr := range q.Violations {
		invariant = append(invariant, aerr.Error())
	}

	// Recovery oracle: the post-fault window must return to the baseline
	// band — not too little goodput, not too much tail latency.
	if v.Baseline.Completions == 0 {
		invariant = append(invariant, "chaos: no baseline completions (baseline window too short for the workload)")
	} else {
		if minGood := (1 - cfg.GoodputTol) * v.Baseline.Goodput; v.Recovery.Goodput < minGood {
			metastable = append(metastable, fmt.Sprintf(
				"chaos: recovery goodput %.1f/s below %.1f/s (baseline %.1f/s, tolerance %.0f%%)",
				v.Recovery.Goodput, minGood, v.Baseline.Goodput, cfg.GoodputTol*100))
		}
		maxP95 := time.Duration(float64(v.Baseline.P95)*cfg.P95Factor) + p95Slack
		if v.Recovery.P95 > maxP95 {
			metastable = append(metastable, fmt.Sprintf(
				"chaos: recovery p95 %v above %v (baseline %v ×%.1f +%v)",
				v.Recovery.P95, maxP95, v.Baseline.P95, cfg.P95Factor, p95Slack))
		}
	}

	switch {
	case len(invariant) > 0:
		v.Class = ClassInvariant
	case len(metastable) > 0:
		v.Class = ClassMetastable
	}
	v.Violations = append(invariant, metastable...)
	return v, nil
}
