package cli

import (
	"flag"
	"fmt"
	"time"

	"github.com/softres/ntier/internal/experiment"
)

// Canonical usage text for the execution-control flags every ntier command
// shares. Keeping the strings in one place is what makes the flag surface
// identical across binaries — the wiring test at the repository root
// enforces that no command re-declares these names with drifting text.
const (
	parallelUsage     = "trial worker count (0 = one per CPU, 1 = serial)"
	stateDirUsage     = "run-state directory for crash-safe journaling"
	resumeUsage       = "resume the campaign journaled in -state-dir"
	trialTimeoutUsage = "wall-clock watchdog per trial (0 = none)"
	obsUsage          = "record per-trial observability snapshots into DIR (see ntier report)"
)

// CommonFlags holds the five execution-control flags shared by every
// campaign-running ntier command: -parallel, -state-dir, -resume,
// -trial-timeout, and -obs. They change how a campaign executes, never
// what a trial measures (they are excluded from result fingerprints).
type CommonFlags struct {
	Parallel     *int
	StateDir     *string
	Resume       *bool
	TrialTimeout *time.Duration
	ObsDir       *string
}

// RegisterCommonFlags registers the shared execution-control flags on fs
// with the canonical names and usage text.
func RegisterCommonFlags(fs *flag.FlagSet) *CommonFlags {
	return &CommonFlags{
		Parallel:     fs.Int("parallel", 0, parallelUsage),
		StateDir:     fs.String("state-dir", "", stateDirUsage),
		Resume:       fs.Bool("resume", false, resumeUsage),
		TrialTimeout: fs.Duration("trial-timeout", 0, trialTimeoutUsage),
		ObsDir:       fs.String("obs", "", obsUsage),
	}
}

// Validate checks cross-flag constraints after parsing.
func (c *CommonFlags) Validate() error {
	if *c.Resume && *c.StateDir == "" {
		return fmt.Errorf("-resume requires -state-dir")
	}
	return nil
}

// Apply copies the execution knobs onto a run configuration. Opening the
// state directory stays with the command: the fingerprint extras are
// per-command.
func (c *CommonFlags) Apply(cfg *experiment.RunConfig) {
	cfg.Parallelism = *c.Parallel
	cfg.TrialTimeout = *c.TrialTimeout
	cfg.ObsDir = *c.ObsDir
}

// OpenState opens (or, with -resume, reopens) the run-state directory
// named by -state-dir for the invocation identified by fingerprint and
// attaches it to cfg. It is a no-op returning a nil cleanup when
// -state-dir is unset; otherwise the caller must invoke the returned
// close function when done.
func (c *CommonFlags) OpenState(cfg *experiment.RunConfig, fingerprint string) (func() error, error) {
	if *c.StateDir == "" {
		return nil, nil
	}
	st, err := experiment.OpenState(*c.StateDir, fingerprint, *c.Resume)
	if err != nil {
		return nil, err
	}
	cfg.State = st
	return st.Close, nil
}
