package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"github.com/softres/ntier/internal/experiment"
)

// runFaults is `ntier faults`: named fault-injection scenarios against the
// simulated deployment, reporting degradation, resilience counters and
// recovery time — optionally across several soft allocations (extension
// beyond the paper; see EXPERIMENTS.md).
//
// List the built-in scenarios:
//
//	ntier faults -list
//
// Crash one of four application servers and watch the fail-over:
//
//	ntier faults -scenario crash-tomcat -hw 1/4/1/4 -soft 400-15-6 -wl 3000
//
// Compare a retry storm across soft allocations, with a per-second
// timeline CSV per allocation:
//
//	ntier faults -scenario retry-storm -soft 400-15-6,400-15-12 -wl 5000 -csv storm.csv
func runFaults(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("faults", stderr)
	tf := trialFlags{
		hw:        fs.String("hw", "1/4/1/4", "hardware configuration #W/#A/#C/#D"),
		soft:      fs.String("soft", "400-15-6", "comma-separated soft allocations Wt-At-Ac"),
		multiSoft: true,
		seed:      fs.Uint64("seed", 1, "random seed"),
		ramp:      fs.Duration("ramp", 15*time.Second, "ramp-up period (simulated)"),
		measure:   fs.Duration("measure", 0, "measured runtime (simulated; 0 = scenario default)"),
		common:    registerCommonFlags(fs),
	}
	var (
		list     = fs.Bool("list", false, "list the built-in fault scenarios")
		scenario = fs.String("scenario", "", "scenario to run (see -list)")
		users    = fs.Int("wl", 3000, "workload (emulated users)")
		thS      = fs.Duration("sla", 0, "goodput threshold for the timeline (0 = scenario default)")
		csvPath  = fs.String("csv", "", "write the per-second timeline CSV to this file (per allocation)")

		rate      = fs.Float64("rate", 60, "flash-crowd: steady offered arrival rate (req/s)")
		spikeMult = fs.Float64("spike-mult", 4, "flash-crowd: spike multiplier over the base rate")
		spikeAt   = fs.Duration("spike-at", 20*time.Second, "flash-crowd: spike start (offset into the measurement window)")
		spikeFor  = fs.Duration("spike-for", 10*time.Second, "flash-crowd: spike duration")
		deadline  = fs.Duration("deadline", 0, "flash-crowd: end-to-end request deadline (0 = none)")
		admission = fs.Bool("admission", false, "flash-crowd: arm overload protection (resilience + adaptive admission)")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	if *list {
		fmt.Fprintln(stdout, "built-in fault scenarios:")
		for _, sc := range experiment.Scenarios() {
			fmt.Fprintf(stdout, "  %-16s %s\n", sc.Name, sc.Description)
		}
		fmt.Fprintf(stdout, "  %-16s %s\n", "flash-crowd",
			"open-system arrival spike (-rate, -spike-mult, -spike-at, -spike-for, -deadline, -admission)")
		return 0
	}
	if *scenario == "" {
		return failUsage(fs, fmt.Errorf("-scenario: required (run -list for the catalogue)"))
	}
	if err := refuse(fs, "fault trials record no observability snapshots", "obs"); err != nil {
		return failUsage(fs, err)
	}
	if err := refuse(fs, "fault trials are not journaled", "state-dir"); err != nil {
		return failUsage(fs, err)
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()

	// trial runs one allocation's scenario from its base configuration,
	// reporting to w and writing the timeline CSV to csv when set.
	var trial func(base experiment.RunConfig, w io.Writer, csv string) error
	if *scenario == "flash-crowd" {
		if *rate <= 0 {
			return failUsage(fs, fmt.Errorf("-rate: must be positive, got %g", *rate))
		}
		trial = func(base experiment.RunConfig, w io.Writer, csv string) error {
			base.Deadline = *deadline
			if *admission {
				base.Testbed.Resilience = experiment.OverloadProtection()
			}
			cfg := experiment.FlashCrowdConfig{
				Run:        base,
				BaseRate:   *rate,
				SpikeMult:  *spikeMult,
				SpikeStart: *spikeAt,
				SpikeDur:   *spikeFor,
			}
			if *thS > 0 {
				cfg.GoodputThreshold = *thS
			}
			fr, err := experiment.RunFlashCrowd(cfg)
			if err != nil {
				return err
			}
			printFlash(w, fr)
			return writeOutput(w, "timeline", csv, fr.WriteTimelineCSV)
		}
	} else {
		sc, err := experiment.ScenarioByName(*scenario)
		if err != nil {
			return failUsage(fs, fmt.Errorf("-scenario: %w", err))
		}
		if *users <= 0 {
			return failUsage(fs, fmt.Errorf("-wl: workload must be positive, got %d", *users))
		}
		// A fault scenario's timeline is per second.
		if *tf.measure%time.Second != 0 {
			return failUsage(fs, fmt.Errorf("-measure: %v is not a whole number of %v windows", *tf.measure, time.Second))
		}
		trial = func(base experiment.RunConfig, w io.Writer, csv string) error {
			base.Users = *users
			cfg := sc.Configure(base)
			if *thS > 0 {
				cfg.GoodputThreshold = *thS
			}
			sr, err := experiment.RunScenario(cfg)
			if err != nil {
				return err
			}
			printScenario(w, sc.Name, sr)
			return writeOutput(w, "timeline", csv, sr.WriteTimelineCSV)
		}
	}

	// Allocations run on the shared bounded worker pool; output is
	// buffered per allocation and printed in flag order, so -parallel
	// never reorders the report.
	outputs := make([]bytes.Buffer, len(tf.allocs))
	err := experiment.ForEachIndex(ctx, len(tf.allocs), *tf.common.parallel, func(i int) error {
		base := tf.base(ctx)
		base.Testbed.Soft = tf.allocs[i]
		csv := ""
		if *csvPath != "" {
			csv = curveCSVPath(*csvPath, tf.allocs[i].String(), len(tf.allocs) > 1)
		}
		if err := trial(base, &outputs[i], csv); err != nil {
			return err
		}
		fmt.Fprintln(&outputs[i])
		return nil
	})
	for i := range outputs {
		io.Copy(stdout, &outputs[i])
	}
	if err != nil {
		return exitErr(stderr, "", err)
	}
	return 0
}

func printFlash(w io.Writer, fr *experiment.FlashCrowdResult) {
	fmt.Fprintf(w, "=== flash-crowd  soft %s ===\n", fr.Config.Run.Testbed.Soft)
	fmt.Fprintln(w, fr.Describe())
	if fr.PreSpikeGoodput > 0 {
		fmt.Fprintf(w, "pre-spike goodput %.1f req/s", fr.PreSpikeGoodput)
		if fr.RecoveryTime >= 0 {
			fmt.Fprintf(w, ", recovered at +%v (%v after spike end)",
				fr.RecoveredAt.Round(time.Second), fr.RecoveryTime.Round(time.Second))
		}
		fmt.Fprintln(w)
	}
	if fr.DrainTime >= 0 {
		fmt.Fprintf(w, "queues drained %v after spike end\n", fr.DrainTime.Round(time.Second))
	} else {
		fmt.Fprintln(w, "queues never drained to the pre-spike level")
	}
}

func printScenario(w io.Writer, name string, sr *experiment.ScenarioResult) {
	fmt.Fprintf(w, "=== %s  soft %s ===\n", name, sr.Config.Run.Testbed.Soft)
	fmt.Fprintln(w, sr.Describe())
	if sr.PreFaultGoodput > 0 {
		fmt.Fprintf(w, "pre-fault goodput %.1f req/s", sr.PreFaultGoodput)
		if sr.RecoveryTime >= 0 {
			fmt.Fprintf(w, ", recovered at +%v (%v after last fault end)",
				sr.RecoveredAt.Round(time.Second), sr.RecoveryTime.Round(time.Second))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "mean effective C-JDBC concurrency %.2f\n", sr.MeanCJDBCBusy)
	res := sr.TotalResilience()
	fmt.Fprintf(w, "resilience: shed %d, acquire-timeouts %d, call-timeouts %d, retries %d, failures %d, breaker opens %d\n",
		res.Shed, res.AcquireTimeouts, res.CallTimeouts, res.Retries, res.Failures, res.BreakerOpens)
	if len(sr.Records) > 0 {
		fmt.Fprintln(w, "faults applied:")
		for _, r := range sr.Records {
			fmt.Fprintf(w, "  %v\n", r)
		}
	}
}
