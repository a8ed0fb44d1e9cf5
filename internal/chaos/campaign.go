// Campaign orchestration: N topology seeds × M plans per seed, run
// through the experiment package's campaign runner. Verdicts journal with
// the same fsync/CRC/torn-tail guarantees as result sweeps, so a killed
// campaign resumes without re-simulating finished trials; cancellations
// and watchdog timeouts are never journaled and re-run on resume.

package chaos

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
)

// CampaignConfig describes a chaos campaign: one trial configuration and
// one generator, fanned out over Seeds × PlansPerSeed trials.
type CampaignConfig struct {
	Trial TrialConfig
	Gen   GenConfig

	// BaseSeed anchors the deterministic seed derivation: trial (s, p)
	// builds its topology with seed BaseSeed+s and generates its plan
	// from seed (BaseSeed+s)<<20 | p. Growing Seeds or PlansPerSeed under
	// -resume extends a campaign without invalidating finished trials.
	BaseSeed     uint64
	Seeds        int // topology seeds (default 1)
	PlansPerSeed int // plans per seed (default 1)

	// ShrinkBudget, when positive, minimizes every failing plan with at
	// most that many extra runs (see Shrink). The minimized reproducer is
	// journaled alongside the verdict.
	ShrinkBudget int

	Parallelism int
	Ctx         context.Context
	State       *experiment.State // nil runs unjournaled

	// OnVerdict observes each resolved trial (possibly from concurrent
	// workers); restored marks outcomes replayed from the journal.
	OnVerdict func(o Outcome, restored bool)
}

// Outcome is one resolved campaign trial — also the journal payload, so
// a resumed campaign restores outcomes byte-identically.
type Outcome struct {
	Key      string      `json:"key"`
	TopoSeed uint64      `json:"topo_seed"`
	PlanSeed uint64      `json:"plan_seed"`
	Plan     fault.Plan  `json:"plan"`
	Verdict  *Verdict    `json:"verdict"`
	Shrunk   *fault.Plan `json:"shrunk,omitempty"`
	// ShrinkTrials counts the runs the minimization spent (0 when the
	// trial passed or shrinking was disabled).
	ShrinkTrials int `json:"shrink_trials,omitempty"`
}

// fingerprint identifies everything that determines a trial's outcome —
// topology, workload timeline, oracle tolerances, generator bounds, seed
// anchor, shrink budget — and nothing that only affects execution
// (parallelism, context, campaign size: keys are self-describing, so a
// grown campaign legitimately extends its journal).
func (cfg CampaignConfig) fingerprint() string {
	t := cfg.Trial
	t.applyDefaults()
	o := t.Topology
	g := cfg.Gen
	g.applyDefaults()
	h := sha256.New()
	fmt.Fprintf(h, "hw=%v soft=%v seed=%d node=%+v lat=%d clink=%g nogc=%t nofin=%t",
		o.Hardware, o.Soft, o.Seed, o.NodeSpec, int64(o.LinkLatency), o.ClientLinkMbps, o.DisableGC, o.DisableFinWait)
	fmt.Fprintf(h, " tuneA=%t tuneT=%t tuneC=%t", o.TuneApache != nil, o.TuneTomcat != nil, o.TuneCJDBC != nil)
	if o.Resilience != nil {
		fmt.Fprintf(h, " res=%s", o.Resilience.Fingerprint())
	}
	fmt.Fprintf(h, " users=%d think=%d ramp=%d baseline=%d grace=%d recovery=%d drain=%d",
		t.Users, int64(t.ThinkMean), int64(t.RampUp), int64(t.Baseline), int64(t.Grace), int64(t.Recovery), int64(t.DrainBudget))
	fmt.Fprintf(h, " gtol=%g p95f=%g p95s=%d deficit=%d",
		t.GoodputTol, t.P95Factor, int64(t.P95Slack), t.LeakRestoreDeficit)
	fmt.Fprintf(h, " gen=%+v base=%d shrink=%d", g, cfg.BaseSeed, cfg.ShrinkBudget)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Fingerprint exposes the campaign identity for command-level state-dir
// metadata.
func (cfg CampaignConfig) Fingerprint() string { return cfg.fingerprint() }

// RunCampaign executes (or resumes) the campaign through the experiment
// campaign runner and returns one outcome per trial, indexed seed-major.
// Deterministic failures (oracle violations, panics) are verdicts, not
// errors. Cancellation and journal I/O abort the fan-out; a watchdog
// timeout is retried on resume and reported as the campaign's error.
func RunCampaign(cfg CampaignConfig) ([]Outcome, error) {
	if cfg.Seeds <= 0 {
		cfg.Seeds = 1
	}
	if cfg.PlansPerSeed <= 0 {
		cfg.PlansPerSeed = 1
	}
	base := experiment.RunConfig{Ctx: cfg.Ctx, Parallelism: cfg.Parallelism, State: cfg.State}
	return experiment.Outs(experiment.RunCampaign(base, experiment.Campaign[Outcome]{
		Kind: "chaos",
		Axes: []string{cfg.fingerprint()},
		N:    cfg.Seeds * cfg.PlansPerSeed,
		Key:  cfg.key,
		Run:  cfg.runOne,
		Observe: func(c experiment.Cell[Outcome]) {
			if cfg.OnVerdict != nil && c.Err == nil {
				cfg.OnVerdict(c.Out, c.Restored)
			}
		},
	}))
}

// key names trial i ("seed=S/plan=P").
func (cfg CampaignConfig) key(i int) string {
	return fmt.Sprintf("seed=%d/plan=%d", i/cfg.PlansPerSeed, i%cfg.PlansPerSeed)
}

// runOne generates, runs, and (on failure) shrinks trial i.
func (cfg CampaignConfig) runOne(i int) (Outcome, error) {
	topoSeed := cfg.BaseSeed + uint64(i/cfg.PlansPerSeed)
	planSeed := topoSeed<<20 | uint64(i%cfg.PlansPerSeed)
	plan := cfg.Gen.Generate(planSeed)
	tcfg := cfg.Trial
	tcfg.Topology.Seed = topoSeed
	if tcfg.Ctx == nil {
		tcfg.Ctx = cfg.Ctx
	}
	v, err := RunTrial(tcfg, plan)
	if err != nil {
		return Outcome{}, err
	}
	o := Outcome{Key: cfg.key(i), TopoSeed: topoSeed, PlanSeed: planSeed, Plan: plan, Verdict: v}
	if v.Failed() && cfg.ShrinkBudget > 0 {
		sr, serr := Shrink(plan, v.Class, cfg.ShrinkBudget, func(p fault.Plan) (*Verdict, error) {
			return RunTrial(tcfg, p)
		})
		switch {
		case errors.Is(serr, ErrNotReproduced):
			// Keep the unshrunk outcome; the verdict stands on its own.
		case serr != nil:
			return Outcome{}, serr
		default:
			shrunk := sr.Plan
			o.Shrunk = &shrunk
			o.ShrinkTrials = sr.Trials
		}
	}
	return o, nil
}
