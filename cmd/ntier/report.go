package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/softres/ntier/internal/obs"
)

// runReport is `ntier report`: it renders a run report from the
// observability snapshots a sweep, tune, or figures run recorded with
// -obs: a per-step bottleneck-attribution table (the paper's
// critical-resource detection), the Fig. 2/5/8 signature findings, a CSV
// of the step verdicts, and one self-contained SVG timeline per trial.
//
//	ntier sweep -hw 1/2/1/2 -soft 400-6-6 -wl 5000:6800:600 -obs runs/under
//	ntier report -obs runs/under
//
// The text report goes to stdout; report.csv and obs-*.svg are written to
// -out (default: the -obs directory itself).
//
// report is the one subcommand without registerCommonFlags: it runs
// no trials, so the execution-control flags have nothing to control, and
// its -obs is an input directory rather than a recording destination.
func runReport(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("report", stderr)
	var (
		obsDir  = fs.String("obs", "", "directory of obs-*.json snapshots (from a run with -obs)")
		outDir  = fs.String("out", "", "directory for report.csv and SVG timelines (default: the -obs directory)")
		noSVG   = fs.Bool("no-svg", false, "skip the SVG timelines")
		hwSat   = fs.Float64("hw-saturation", obs.DefaultHWSaturation, "hardware utilization at which a resource counts as saturated, in (0, 1]")
		softSat = fs.Float64("soft-saturation", obs.DefaultSoftSaturation, "share of time a pool must be full with waiters to count as saturated, in (0, 1]")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *obsDir == "" {
		return failUsage(fs, fmt.Errorf("-obs DIR is required"))
	}
	for _, th := range []struct {
		flag string
		v    float64
	}{{"-hw-saturation", *hwSat}, {"-soft-saturation", *softSat}} {
		if !(th.v > 0 && th.v <= 1) {
			return failUsage(fs, fmt.Errorf("%s: threshold must be in (0, 1], got %g", th.flag, th.v))
		}
	}
	if *outDir == "" {
		*outDir = *obsDir
	}
	cfg := obs.JudgeConfig{HWSaturation: *hwSat, SoftSaturation: *softSat}

	trials, err := obs.ReadDir(*obsDir)
	if err != nil {
		return exitErr(stderr, "", err)
	}
	groups := obs.GroupTrials(trials)
	fmt.Fprint(stdout, obs.RenderReport(groups, cfg))

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return exitErr(stderr, "", err)
	}
	csvPath := filepath.Join(*outDir, "report.csv")
	if err := writeFile(csvPath, func(w io.Writer) error { return obs.WriteReportCSV(w, groups, cfg) }); err != nil {
		return exitErr(stderr, "", err)
	}
	written := []string{csvPath}
	if !*noSVG {
		for _, t := range trials {
			p := filepath.Join(*outDir, t.SVGFileName())
			if err := os.WriteFile(p, obs.RenderSVG(t), 0o644); err != nil {
				return exitErr(stderr, "", err)
			}
			written = append(written, p)
		}
	}
	fmt.Fprintf(stdout, "\nwrote %d files to %s (report.csv%s)\n",
		len(written), *outDir, map[bool]string{true: "", false: " + SVG timelines"}[*noSVG])
	return 0
}
