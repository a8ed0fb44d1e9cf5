// Command ntier drives the simulated n-tier testbed. One binary serves the
// paper's whole evaluation through subcommands that share its notation:
// hardware written #W/#A/#C/#D ("1/2/1/2"), soft allocations written
// Wt-At-Ac ("400-15-6"), and a workload.
//
//	ntier run -hw 1/2/1/2 -soft 400-15-6 -wl 6000
//	ntier sweep -hw 1/2/1/2 -soft 400-6-6,400-15-6 -wl 5000:6800:400
//	ntier tune -hw 1/4/1/4 -validate
//	ntier figures -only fig4,fig5
//	ntier <subcommand> -h
//
// Every subcommand that runs trials accepts the execution-control flags
// -parallel, -state-dir, -resume, -trial-timeout and -obs; output is
// byte-identical at any -parallel, and a journaled run interrupted by a
// signal exits 130 with a resume hint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// subcommand is one entry of the dispatch table.
type subcommand struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}

var subcommands = []subcommand{
	{"run", "one measured trial: throughput, goodput, per-server monitoring", runTrial},
	{"sweep", "workload, pool-size and offered-load sweeps (Figs. 2-6, 10)", runSweep},
	{"tune", "the soft-resource allocation algorithm (Algorithm 1, Table I)", runTune},
	{"figures", "regenerate the dataset behind every table and figure", runFigures},
	{"faults", "named fault-injection scenarios and flash crowds", runFaults},
	{"search", "surrogate-guided budgeted allocation search", runSearch},
	{"elastic", "live reallocation policies over day-shaped traffic", runElastic},
	{"fleet", "multi-tenant consolidation campaigns", runFleet},
	{"chaos", "seeded fault fuzzing judged by conservation and recovery oracles", runChaos},
	{"report", "render a run report from -obs snapshots", runReport},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches on the first argument. Anything but a subcommand name is
// a usage error that lists the subcommands.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name == args[0] {
				return sc.run(args[1:], stdout, stderr)
			}
		}
	}
	switch {
	case len(args) == 0:
		fmt.Fprintln(stderr, "ntier: missing subcommand")
	case args[0] != "-h" && args[0] != "-help" && args[0] != "--help":
		fmt.Fprintf(stderr, "ntier: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(stderr, "usage: ntier <subcommand> [flags]   (ntier <subcommand> -h lists its flags)")
	fmt.Fprintln(stderr, "\nsubcommands:")
	for _, sc := range subcommands {
		fmt.Fprintf(stderr, "  %-8s %s\n", sc.name, sc.summary)
	}
	return 2
}

// newFlagSet returns a subcommand's flag set, reporting to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("ntier "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// trialFlags is the flag block the trial-running subcommands share: the
// testbed (-hw, -soft, -seed), the measurement protocol (-ramp, -measure)
// and the shared execution-control flags. Each subcommand declares the block
// with its own defaults and usage text, leaving nil what it does not
// take; parse validates it once for all of them.
type trialFlags struct {
	hw, soft      *string
	multiSoft     bool // -soft is a comma-separated list
	seed          *uint64
	ramp, measure *time.Duration
	common        *commonFlags

	hardware testbed.Hardware
	allocs   []testbed.SoftAlloc
}

// parse parses args and validates the block. A non-zero result is the exit
// status of a usage error that has already been reported.
func (t *trialFlags) parse(fs *flag.FlagSet, args []string) int {
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := t.check(); err != nil {
		return failUsage(fs, err)
	}
	return 0
}

func (t *trialFlags) check() error {
	if err := t.common.validate(); err != nil {
		return err
	}
	var err error
	if t.hw != nil {
		if t.hardware, err = parseHardware(*t.hw); err != nil {
			return err
		}
	}
	switch {
	case t.soft == nil:
	case t.multiSoft:
		t.allocs, err = parseSoftAllocs(*t.soft)
	default:
		var soft testbed.SoftAlloc
		soft, err = parseSoftAlloc(*t.soft)
		t.allocs = []testbed.SoftAlloc{soft}
	}
	return err
}

// base is the trial configuration the block describes, without a soft
// allocation: the subcommands that sweep several allocations fingerprint
// their campaign before choosing one.
func (t *trialFlags) base(ctx context.Context) experiment.RunConfig {
	cfg := experiment.RunConfig{
		Testbed: testbed.Options{Hardware: t.hardware},
		Ctx:     ctx,
	}
	if t.seed != nil {
		cfg.Testbed.Seed = *t.seed
	}
	if t.ramp != nil {
		cfg.RampUp = *t.ramp
	}
	if t.measure != nil {
		cfg.Measure = *t.measure
	}
	t.common.apply(&cfg)
	return cfg
}

// refuse returns a usage error naming the first of the given flags the
// invocation set: the subcommand accepts it with the shared block but has
// nothing for it to act on, and ignoring it silently would mislead.
func refuse(fs *flag.FlagSet, why string, names ...string) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, n := range names {
			if err == nil && f.Name == n {
				err = fmt.Errorf("-%s: %s", n, why)
			}
		}
	})
	return err
}

// exitErr reports a subcommand's terminal error and returns its exit
// status; an interrupted journaled run also gets the resume hint.
func exitErr(stderr io.Writer, stateDir string, err error) int {
	fmt.Fprintln(stderr, err)
	if hint := resumeHint(stateDir); hint != "" && exitCode(err) == exitInterrupted {
		fmt.Fprintln(stderr, hint)
	}
	return exitCode(err)
}

// writeFile streams one emitter into the file at path.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeOutput writes one output file through write and announces it on w
// as "<what> written to <path>"; an empty path writes nothing.
func writeOutput(w io.Writer, what, path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, write); err != nil {
		return err
	}
	fmt.Fprintf(w, "%s written to %s\n", what, path)
	return nil
}

// curveCSVPath derives a per-curve CSV file name: with several curves the
// curve label (an allocation such as 400-15-6, or a sweep label) is
// inserted before the extension.
func curveCSVPath(path, label string, many bool) string {
	if !many {
		return path
	}
	ext := filepath.Ext(path)
	clean := strings.NewReplacer("/", "_", "(", "-", ")", "").Replace(label)
	return path[:len(path)-len(ext)] + "-" + clean + ext
}
