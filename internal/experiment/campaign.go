// The campaign runner: every experiment this repository runs — workload,
// allocation and overload sweeps, elastic and fleet grids, the tuner's
// ramps, the search's rungs, chaos campaigns — is a set of independent
// trials that fan out across workers, journal as they finish, and restore
// instead of re-simulating on resume. RunCampaign is the one
// implementation of that pattern, with one failure policy for all of them.

package experiment

import (
	"errors"
	"fmt"

	"github.com/softres/ntier/internal/des"
)

// Campaign describes N independent trials of one kind.
type Campaign[Out any] struct {
	// Kind names the campaign's journal ("workload", "elastic", "chaos",
	// ...). Axes carry everything outcome-determining that the base
	// configuration's fingerprint misses: grid axes, algorithm knobs.
	Kind string
	Axes []string

	// N is the trial count. Key(i) identifies trial i in the journal and
	// labels its errors; Run(i) simulates it. Out must round-trip JSON.
	N   int
	Key func(i int) string
	Run func(i int) (Out, error)

	// Observe, when set, sees each resolved trial after it is journaled,
	// from concurrent workers (base.OnTrial is called as well).
	Observe func(Cell[Out])
}

// Cell is one resolved campaign trial.
type Cell[Out any] struct {
	Key      string
	Out      Out   // the zero value when Err is set
	Err      error // contained trial failure: *PanicError or *TimeoutError
	Restored bool  // replayed from the journal: no simulation ran
}

// RunCampaign runs (or resumes) c under base's execution knobs: up to
// base.Parallelism workers, base.Ctx cancellation between trials, and —
// when base.State is set — the journal fingerprinted by base, c.Kind and
// c.Axes. The failure policy is the same for every campaign:
//
//   - a journaled trial is restored without simulating, and a journaled
//     panic replays as its *PanicError;
//   - a fresh output or *PanicError is journaled and fsynced before the
//     trial resolves;
//   - a *TimeoutError or a cancellation is never journaled, so a resumed
//     campaign re-runs it;
//   - contained failures (panics, timeouts) land in Cell.Err and the
//     campaign keeps going;
//   - any other error aborts the campaign, labeled with its trial key, and
//     the lowest-index one wins.
//
// Cells come back in index order, identical at every parallelism.
//
// Each trial's engine runs on the storage an earlier one shut down left
// (des.NewEnv), and RunCampaign drops what is left when it returns, so
// nothing its trials used outlives the campaign.
func RunCampaign[Out any](base RunConfig, c Campaign[Out]) ([]Cell[Out], error) {
	defer des.DropStorage()
	var j *Journal
	if base.State != nil {
		var err error
		if j, err = base.State.Journal(c.Kind, Fingerprint(base, append([]string{c.Kind}, c.Axes...)...)); err != nil {
			return nil, err
		}
	}
	cells := make([]Cell[Out], c.N)
	err := ForEachIndex(base.Ctx, c.N, base.Parallelism, func(i int) error {
		cell := &cells[i]
		cell.Key = c.Key(i)
		if err := c.resolve(j, i, cell); err != nil {
			return fmt.Errorf("experiment: %s: %w", cell.Key, err)
		}
		if base.OnTrial != nil {
			base.OnTrial(cell.Key, cell.Restored, cell.Err)
		}
		if c.Observe != nil {
			c.Observe(*cell)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

// resolve restores trial i from the journal (nil j: none) or runs it,
// journaling whatever the failure policy keeps.
func (c Campaign[Out]) resolve(j *Journal, i int, cell *Cell[Out]) error {
	if j != nil {
		if ok, err := j.Restore(cell.Key, &cell.Out); ok {
			cell.Restored = true
			var pe *PanicError
			if errors.As(err, &pe) {
				cell.Err = pe
				return nil
			}
			return err
		}
	}
	out, err := c.Run(i)
	if err != nil {
		if !IsTrialFailure(err) {
			return err
		}
		cell.Err = err
		var pe *PanicError
		if j == nil || !errors.As(err, &pe) {
			return nil
		}
		return j.Record(cell.Key, pe)
	}
	cell.Out = out
	if j == nil {
		return nil
	}
	return j.Record(cell.Key, out)
}

// Outs returns a campaign's outputs in index order, or its lowest-index
// contained failure labeled with the trial key: for campaigns whose result
// needs every trial (elastic and fleet grids, the tuner's ramps, chaos).
// It takes RunCampaign's results directly.
func Outs[Out any](cells []Cell[Out], err error) ([]Out, error) {
	if err != nil {
		return nil, err
	}
	outs := make([]Out, len(cells))
	for i, c := range cells {
		if c.Err != nil {
			return nil, fmt.Errorf("experiment: %s: %w", c.Key, c.Err)
		}
		outs[i] = c.Out
	}
	return outs, nil
}

// RunTrials runs Run(cfgs[i]) for every configuration as one campaign,
// keyed by trialKey. A restored Result gets its configuration reattached:
// the journal cannot hold Config's closures, and the fingerprint
// guarantees the configuration that produced it.
func RunTrials(base RunConfig, kind string, axes []string, cfgs []RunConfig) ([]Cell[*Result], error) {
	cells, err := RunCampaign(base, Campaign[*Result]{
		Kind: kind,
		Axes: axes,
		N:    len(cfgs),
		Key:  func(i int) string { return trialKey(cfgs[i]) },
		Run:  func(i int) (*Result, error) { return Run(cfgs[i]) },
	})
	for i := range cells {
		if cells[i].Restored && cells[i].Out != nil {
			cells[i].Out.Config = cfgs[i]
			cells[i].Out.Config.applyDefaults()
		}
	}
	return cells, err
}

// trialKey identifies one trial of a RunTrials campaign. The soft
// allocation plus the offered load pins the point on every axis these
// campaigns vary: workload sweeps, allocation grids, the tuner's ramps and
// the search's rungs vary the allocation and the user population, and
// overload sweeps vary the arrival process at a fixed allocation.
func trialKey(cfg RunConfig) string {
	if cfg.Arrivals != nil {
		return fmt.Sprintf("soft %s arrivals %s deadline %v", cfg.Testbed.Soft, cfg.Arrivals, cfg.Deadline)
	}
	return fmt.Sprintf("soft %s workload %d", cfg.Testbed.Soft, cfg.Users)
}

// resultsOf splits cells into index-aligned Results and contained
// failures: the Curve layout, where a failed point is a nil Result.
func resultsOf(cells []Cell[*Result]) ([]*Result, []error) {
	res, errs := make([]*Result, len(cells)), make([]error, len(cells))
	for i, c := range cells {
		res[i], errs[i] = c.Out, c.Err
	}
	return res, errs
}
