package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
)

// TestParseErrors is the shared malformed-flag test for every ntier
// command: each parser must reject the junk values with an error that
// names the flag, so the commands can exit non-zero with usage.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name  string
		parse func(string) error
		bad   []string
	}{
		{
			name:  "-hw",
			parse: func(s string) error { _, err := parseHardware(s); return err },
			bad:   []string{"", "1/2/1", "1/2/1/2/3", "a/2/1/2", "0/2/1/2", "-1/2/1/2", "1-2-1-2"},
		},
		{
			name:  "-soft",
			parse: func(s string) error { _, err := parseSoftAlloc(s); return err },
			bad:   []string{"", "400-15", "400-15-6-1", "x-15-6", "400/15/6", "0-15-6"},
		},
		{
			name:  "-soft list",
			parse: func(s string) error { _, err := parseSoftAllocs(s); return err },
			bad:   []string{"", "400-15-6,", ",400-15-6", "400-15-6,junk"},
		},
		{
			name:  "-wl",
			parse: func(s string) error { _, err := parseWorkloads(s); return err },
			bad:   []string{"", "1:2", "1:2:3:4", "a:2:3", "5:1:1", "1:5:0", "1:5:-1", "x,y", "0", "-5", ","},
		},
	}
	for _, tc := range cases {
		for _, bad := range tc.bad {
			err := tc.parse(bad)
			if err == nil {
				t.Errorf("%s: accepted %q", tc.name, bad)
				continue
			}
			if !strings.Contains(err.Error(), "-hw") && !strings.Contains(err.Error(), "-soft") &&
				!strings.Contains(err.Error(), "-wl") {
				t.Errorf("%s: error for %q does not name a flag: %v", tc.name, bad, err)
			}
		}
	}
}

func TestParseOK(t *testing.T) {
	if hw, err := parseHardware("1/4/1/4"); err != nil || hw.App != 4 || hw.DB != 4 {
		t.Errorf("parseHardware: %+v, %v", hw, err)
	}
	if soft, err := parseSoftAlloc(" 400-15-6 "); err != nil || soft.AppThreads != 15 {
		t.Errorf("parseSoftAlloc: %+v, %v", soft, err)
	}
	if allocs, err := parseSoftAllocs("400-6-6, 400-15-6"); err != nil || len(allocs) != 2 {
		t.Errorf("parseSoftAllocs: %+v, %v", allocs, err)
	}
	if wl, err := parseWorkloads("5000:6200:400"); err != nil || len(wl) != 4 || wl[3] != 6200 {
		t.Errorf("parseWorkloads range: %v, %v", wl, err)
	}
	if wl, err := parseWorkloads("100, 200,300"); err != nil || len(wl) != 3 {
		t.Errorf("parseWorkloads list: %v, %v", wl, err)
	}
	if ints, err := parseInts("1,,2, 3"); err != nil || len(ints) != 3 {
		t.Errorf("parseInts: %v, %v", ints, err)
	}
}

func TestFail(t *testing.T) {
	var buf strings.Builder
	fs := flag.NewFlagSet("ntier-test", flag.ContinueOnError)
	fs.SetOutput(&buf)
	fs.String("hw", "", "hardware")
	if code := failUsage(fs, fmt.Errorf("-hw: bad value")); code != 2 {
		t.Errorf("fail returned %d, want 2", code)
	}
	out := buf.String()
	if !strings.Contains(out, "ntier-test: -hw: bad value") {
		t.Errorf("fail output missing error: %q", out)
	}
	if !strings.Contains(out, "Usage") && !strings.Contains(out, "-hw") {
		t.Errorf("fail output missing usage: %q", out)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, 0},
		{context.Canceled, exitInterrupted},
		{fmt.Errorf("sweep: %w", context.Canceled), exitInterrupted},
		{errors.New("boom"), 1},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("exitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestResumeHint(t *testing.T) {
	if got := resumeHint(""); got != "" {
		t.Errorf("resumeHint(\"\") = %q, want empty", got)
	}
	got := resumeHint("runs/sweep1")
	if !strings.Contains(got, "-state-dir runs/sweep1") || !strings.Contains(got, "-resume") {
		t.Errorf("resumeHint = %q, want the resume flags", got)
	}
}

// TestRegisterCommonFlags pins the shared flag surface: exactly these
// five names, each with the canonical usage text. Any rename or reword
// must happen here first, so every binary picks it up at once.
func TestRegisterCommonFlags(t *testing.T) {
	fs := flag.NewFlagSet("ntier-test", flag.ContinueOnError)
	common := registerCommonFlags(fs)

	want := map[string]string{
		"parallel":      parallelUsage,
		"state-dir":     stateDirUsage,
		"resume":        resumeUsage,
		"trial-timeout": trialTimeoutUsage,
		"obs":           obsUsage,
	}
	got := map[string]string{}
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.Usage })
	if len(got) != len(want) {
		t.Errorf("registered %d flags, want %d: %v", len(got), len(want), got)
	}
	for name, usage := range want {
		if got[name] != usage {
			t.Errorf("flag -%s usage = %q, want %q", name, got[name], usage)
		}
	}

	if err := fs.Parse([]string{"-parallel", "3", "-trial-timeout", "5s", "-obs", "runs/o"}); err != nil {
		t.Fatal(err)
	}
	var cfg experiment.RunConfig
	common.apply(&cfg)
	if cfg.Parallelism != 3 || cfg.TrialTimeout != 5*time.Second || cfg.ObsDir != "runs/o" {
		t.Errorf("Apply: got Parallelism=%d TrialTimeout=%v ObsDir=%q", cfg.Parallelism, cfg.TrialTimeout, cfg.ObsDir)
	}
}

func TestCommonFlagsValidate(t *testing.T) {
	parse := func(args ...string) *commonFlags {
		fs := flag.NewFlagSet("ntier-test", flag.ContinueOnError)
		c := registerCommonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c
	}
	if err := parse("-resume").validate(); err == nil || !strings.Contains(err.Error(), "-state-dir") {
		t.Errorf("Validate with bare -resume: %v, want an error naming -state-dir", err)
	}
	if err := parse("-resume", "-state-dir", "runs/x").validate(); err != nil {
		t.Errorf("Validate with -resume -state-dir: %v", err)
	}
	if err := parse().validate(); err != nil {
		t.Errorf("Validate with defaults: %v", err)
	}
}

func TestCommonFlagsOpenState(t *testing.T) {
	parse := func(args ...string) *commonFlags {
		fs := flag.NewFlagSet("ntier-test", flag.ContinueOnError)
		c := registerCommonFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Unset -state-dir is a no-op: no state, and closing it does nothing.
	st, err := parse().openState("fp")
	if err != nil || st != nil {
		t.Errorf("OpenState without -state-dir: state=%v err=%v", st, err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("closing the nil state: %v", err)
	}

	dir := filepath.Join(t.TempDir(), "state")
	st, err = parse("-state-dir", dir).openState("fp")
	if err != nil {
		t.Fatal(err)
	}
	if st == nil {
		t.Fatal("OpenState with -state-dir opened no state")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A populated state dir must be refused without -resume and accepted
	// with it.
	if _, err := parse("-state-dir", dir).openState("fp"); err == nil {
		t.Error("OpenState reopened a populated state dir without -resume")
	}
	st, err = parse("-state-dir", dir, "-resume").openState("fp")
	if err != nil {
		t.Fatalf("OpenState with -resume: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWithSignalContext(t *testing.T) {
	ctx, stop := withSignalContext(context.Background())
	if ctx.Err() != nil {
		t.Fatalf("fresh signal context already done: %v", ctx.Err())
	}
	// A SIGINT delivered to the process cancels the context.
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("context not canceled within 2s of SIGINT")
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Errorf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}
	// stop is idempotent.
	stop()
	stop()
}

func TestSignalContextStopReleasesHandler(t *testing.T) {
	ctx, stop := withSignalContext(context.Background())
	stop()
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Errorf("stopped context err = %v, want context.Canceled", ctx.Err())
	}
}
