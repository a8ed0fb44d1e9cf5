package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/paper"
)

// registry indexes the paper's figure table by its -only names.
var registry = map[string]*paper.Entry{}

func init() {
	for _, e := range paper.Table {
		registry[e.Name] = e
	}
}

// validNames returns the registry's names, sorted.
func validNames() []string {
	var names []string
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// selectNames resolves a -only value against the registry: blanks (a
// trailing comma, doubled commas) are skipped, and every name is validated
// before any experiment runs.
func selectNames(only string) ([]string, error) {
	if only == "" {
		return validNames(), nil
	}
	var names []string
	for _, part := range strings.Split(only, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if _, ok := registry[part]; !ok {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", part, strings.Join(validNames(), ", "))
		}
		names = append(names, part)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-only %q selects no experiments (valid: %s)", only, strings.Join(validNames(), ", "))
	}
	return names, nil
}

// runFigures is `ntier figures`: it regenerates the dataset behind every
// table and figure in the paper's evaluation, writing one text report per
// experiment into -out (default ./results).
//
//	ntier figures                  # all experiments, scaled-down trials
//	ntier figures -only fig4,fig5  # a subset
//	ntier figures -full            # paper-scale 8-min ramp / 12-min runtime
//	ntier figures -parallel 1      # serial trials (output is identical)
//
// Generators and the trials inside their sweeps run on a bounded worker
// pool (one worker per CPU by default); every dataset is byte-identical
// to a serial run.
func runFigures(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("figures", stderr)
	tf := trialFlags{
		seed:   fs.Uint64("seed", 1, "random seed"),
		common: registerCommonFlags(fs),
	}
	var (
		out  = fs.String("out", "results", "output directory")
		only = fs.String("only", "", "comma-separated subset (fig2..fig10, table1, ablation)")
		full = fs.Bool("full", false, "paper-scale trials (8-min ramp, 12-min runtime)")
	)
	if code := tf.parse(fs, args); code != 0 {
		return code
	}
	names, err := selectNames(*only)
	if err != nil {
		return failUsage(fs, err)
	}

	ctx, stop := withSignalContext(context.Background())
	defer stop()

	h := paper.Default
	if *full {
		h = paper.Full
	}
	base := tf.base(ctx)
	base.RampUp, base.Measure = h.RampUp, h.Measure
	fail := func(err error) int { return exitErr(stderr, *tf.common.stateDir, err) }
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fail(err)
	}

	// The per-sweep journal fingerprints cover each figure's actual
	// configurations; the directory fingerprint pins the shared knobs.
	st, err := tf.common.openState(experiment.Fingerprint(base, "figures"))
	if err != nil {
		return fail(err)
	}
	defer st.Close()
	base.State = st

	// Generators are independent — run them on the same bounded worker
	// pool the sweeps use. Each writes its own file; the datasets are
	// byte-identical to a serial run at any -parallel setting.
	var mu sync.Mutex
	err = experiment.ForEachIndex(ctx, len(names), *tf.common.parallel, func(i int) error {
		name := names[i]
		start := time.Now()
		text, err := registry[name].Text(base)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		path := filepath.Join(*out, name+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		mu.Lock()
		fmt.Fprintf(stdout, "== %s: wrote %s (%.1fs)\n", name, path, time.Since(start).Seconds())
		mu.Unlock()
		return nil
	})
	if err != nil {
		return fail(err)
	}
	return 0
}
