// Flag parsing and error handling shared by the subcommands. The parsers
// accept the paper's configuration notation verbatim: hardware
// configurations written #W/#A/#C/#D such as "1/2/1/2" (§II-B, Fig. 1) and
// soft allocations written Wt-At-Ac such as "400-15-6" (Apache workers,
// Tomcat threads, DB connections per Tomcat — the axes varied in Figs.
// 2–8). All parsers return errors that name the offending value;
// subcommands turn those into a usage message and a non-zero exit through
// failUsage.

package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// failUsage reports a bad invocation: it prints the error and the flag set's
// usage to the set's output and returns the conventional exit code 2.
func failUsage(fs *flag.FlagSet, err error) int {
	fmt.Fprintf(fs.Output(), "%s: %v\n", fs.Name(), err)
	fs.Usage()
	return 2
}

// parseHardware parses a -hw value ("1/2/1/2").
func parseHardware(s string) (testbed.Hardware, error) {
	hw, err := testbed.ParseHardware(s)
	if err != nil {
		return hw, fmt.Errorf("-hw: %w", err)
	}
	return hw, nil
}

// parseSoftAlloc parses a single -soft value ("400-15-6").
func parseSoftAlloc(s string) (testbed.SoftAlloc, error) {
	soft, err := testbed.ParseSoftAlloc(strings.TrimSpace(s))
	if err != nil {
		return soft, fmt.Errorf("-soft: %w", err)
	}
	return soft, nil
}

// parseSoftAllocs parses a comma-separated -soft list
// ("400-6-6,400-15-6"). Empty segments are rejected, not skipped: a
// trailing comma is a typo worth flagging.
func parseSoftAllocs(s string) ([]testbed.SoftAlloc, error) {
	var out []testbed.SoftAlloc
	for _, part := range strings.Split(s, ",") {
		soft, err := parseSoftAlloc(part)
		if err != nil {
			return nil, err
		}
		out = append(out, soft)
	}
	return out, nil
}

// parseWorkloads parses a -wl value: either a comma list ("5000,5600")
// or an inclusive range with step ("5000:6800:400").
func parseWorkloads(s string) ([]int, error) {
	if strings.Contains(s, ":") {
		parts := strings.Split(s, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-wl: range must be lo:hi:step, got %q", s)
		}
		lo, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
		hi, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
		step, err3 := strconv.Atoi(strings.TrimSpace(parts[2]))
		if err1 != nil || err2 != nil || err3 != nil || step <= 0 || hi < lo {
			return nil, fmt.Errorf("-wl: bad range %q (want lo:hi:step with step>0, hi>=lo)", s)
		}
		var out []int
		for n := lo; n <= hi; n += step {
			out = append(out, n)
		}
		return out, nil
	}
	out, err := parseInts(s)
	if err != nil {
		return nil, fmt.Errorf("-wl: %w", err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-wl: empty workload list %q", s)
	}
	for _, n := range out {
		if n <= 0 {
			return nil, fmt.Errorf("-wl: workload must be positive, got %d", n)
		}
	}
	return out, nil
}

// parseFloats parses a comma-separated float list, skipping empty
// segments (offered-load rates for the overload sweeps).
func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", part)
		}
		out = append(out, f)
	}
	return out, nil
}

// parseInts parses a comma-separated integer list, skipping empty
// segments.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

// Canonical usage text for the execution-control flags every ntier
// subcommand shares. Keeping the strings in one place is what makes the
// flag surface identical across subcommands; TestCommandsWireCommonFlags
// checks that each lists them with this text.
const (
	parallelUsage     = "trial worker count (0 = one per CPU, 1 = serial)"
	stateDirUsage     = "run-state directory for crash-safe journaling"
	resumeUsage       = "resume the campaign journaled in -state-dir"
	trialTimeoutUsage = "wall-clock watchdog per trial (0 = none)"
	obsUsage          = "record per-trial observability snapshots into DIR (see ntier report)"
)

// commonFlags holds the five execution-control flags shared by every
// campaign-running ntier command: -parallel, -state-dir, -resume,
// -trial-timeout, and -obs. They change how a campaign executes, never
// what a trial measures (they are excluded from result fingerprints).
type commonFlags struct {
	parallel     *int
	stateDir     *string
	resume       *bool
	trialTimeout *time.Duration
	obsDir       *string
}

// registerCommonFlags registers the shared execution-control flags on fs
// with the canonical names and usage text.
func registerCommonFlags(fs *flag.FlagSet) *commonFlags {
	return &commonFlags{
		parallel:     fs.Int("parallel", 0, parallelUsage),
		stateDir:     fs.String("state-dir", "", stateDirUsage),
		resume:       fs.Bool("resume", false, resumeUsage),
		trialTimeout: fs.Duration("trial-timeout", 0, trialTimeoutUsage),
		obsDir:       fs.String("obs", "", obsUsage),
	}
}

// validate checks cross-flag constraints after parsing.
func (c *commonFlags) validate() error {
	if *c.resume && *c.stateDir == "" {
		return fmt.Errorf("-resume requires -state-dir")
	}
	return nil
}

// apply copies the execution knobs onto a run configuration. Opening the
// state directory stays with the command: the fingerprint extras are
// per-command.
func (c *commonFlags) apply(cfg *experiment.RunConfig) {
	cfg.Parallelism = *c.parallel
	cfg.TrialTimeout = *c.trialTimeout
	cfg.ObsDir = *c.obsDir
}

// openState opens (or, with -resume, reopens) the run-state directory
// named by -state-dir for the invocation identified by fingerprint. It
// returns a nil State when -state-dir is unset; the caller closes what it
// returns either way.
func (c *commonFlags) openState(fingerprint string) (*experiment.State, error) {
	if *c.stateDir == "" {
		return nil, nil
	}
	return experiment.OpenState(*c.stateDir, fingerprint, *c.resume)
}
