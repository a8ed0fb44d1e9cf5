// Campaign orchestration: N topology seeds × M plans per seed, run
// through the experiment package's campaign runner. Verdicts journal with
// the same fsync/CRC/torn-tail guarantees as result sweeps, so a killed
// campaign resumes without re-simulating finished trials; cancellations
// and watchdog timeouts are never journaled and re-run on resume.

package chaos

import (
	"errors"
	"fmt"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
)

// CampaignConfig describes a chaos campaign: one trial configuration and
// one generator, fanned out over Seeds × PlansPerSeed trials. Trial.Run
// is the campaign's base: its Parallelism, Ctx and State (nil runs
// unjournaled) run the campaign.
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

// Fingerprint identifies the campaign by its configuration's image and
// the recovery oracle's fixed p95 headroom. The journal and the command's
// state-dir metadata both carry it. Execution knobs and the campaign's
// size are left out: keys are self-describing, so a grown campaign
// extends its journal. So is the population, as from every RunConfig
// image: RunCampaign names the journal after it, and a command's state
// fingerprint adds it.
func (cfg CampaignConfig) Fingerprint() string {
	return experiment.FingerprintOf(cfg, p95Slack.String())
}

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
	cfg.Trial.applyDefaults()
	base := cfg.Trial.Run
	return experiment.Outs(experiment.RunCampaign(base, experiment.Campaign[Outcome]{
		Kind: "chaos",
		// The population is execution-only in the fingerprint, since sweep
		// keys name it; chaos keys do not, so the journal's name does.
		Axes: []string{cfg.Fingerprint(), fmt.Sprintf("users=%d", base.Users)},
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
	tcfg.Run.Testbed.Seed = topoSeed
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
