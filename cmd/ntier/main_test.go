package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// firstLine is a subcommand's error line: the stderr line before the
// usage text, which lists every flag.
func firstLine(s string) string {
	line, _, _ := strings.Cut(s, "\n")
	return line
}

// mentions counts the whole-word occurrences of name in line, so -scenario
// is not found inside "no-such-scenario".
func mentions(line, name string) int {
	return len(regexp.MustCompile(`(?:^|[\s(])`+regexp.QuoteMeta(name)+`(?:$|[^\w-])`).FindAllString(line, -1))
}

// flagCase is one malformed command line for a subcommand: its arguments
// after the subcommand name, and the text its error must name.
type flagCase struct {
	args []string
	want string // expected exactly once in stderr's first line
}

// rejectsMalformedFlags checks that each malformed command line of sub
// fails with the usage exit 2 and an error that names the offending flag
// exactly once (shared parser coverage lives in flags_test.go).
func rejectsMalformedFlags(t *testing.T, sub string, cases []flagCase) {
	t.Helper()
	for _, tc := range cases {
		args := append([]string{sub}, tc.args...)
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want the usage exit 2", args, code)
			continue
		}
		if line := firstLine(stderr.String()); mentions(line, tc.want) != 1 {
			t.Errorf("run(%v) error %q should name %q exactly once", args, line, tc.want)
		}
	}
}

func TestRunRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "run", []flagCase{
		{[]string{"-hw", "1/2"}, "-hw"},
		{[]string{"-hw", "0/2/1/2"}, "-hw"},
		{[]string{"-soft", "400/15/6"}, "-soft"},
		{[]string{"-soft", "400-15-0"}, "-soft"},
		{[]string{"-wl", "-5"}, "-wl"},
		{[]string{"-mix", "bogus"}, "-mix"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}

// A subcommand that accepts a shared flag it has nothing to act on must
// refuse it with a usage error naming the flag, not ignore it silently.
func TestRefusesUnusedCommonFlags(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		flag string
	}{
		{chaosArgs("-seeds", "1", "-plans", "1", "-obs", filepath.Join(dir, "obs")), "-obs"},
		{[]string{"faults", "-scenario", "flash-crowd", "-hw", "1/1/1/1", "-soft", "50-6-6",
			"-rate", "5", "-ramp", "1s", "-measure", "2s", "-state-dir", filepath.Join(dir, "state")}, "-state-dir"},
		{[]string{"faults", "-scenario", "crash-tomcat", "-hw", "1/2/1/2", "-soft", "50-6-6",
			"-wl", "10", "-ramp", "1s", "-measure", "2s", "-state-dir", filepath.Join(dir, "state")}, "-state-dir"},
	}
	for _, tc := range cases {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", tc.args, code)
		}
		if line := firstLine(stderr.String()); mentions(line, tc.flag) != 1 {
			t.Errorf("run(%v) error %q should name %s", tc.args, line, tc.flag)
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused invocations wrote %d entries into %s", len(entries), dir)
	}
}

// Without a subcommand, ntier exits 2 and lists every subcommand.
func TestRunWithoutSubcommand(t *testing.T) {
	for _, args := range [][]string{nil, {"-hw", "1/2/1/2"}, {"bogus"}} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		for _, sc := range subcommands {
			if !strings.Contains(stderr.String(), "  "+sc.name+" ") {
				t.Errorf("run(%v) usage does not list %q:\n%s", args, sc.name, stderr.String())
			}
		}
	}
	if len(subcommands) != 10 {
		t.Errorf("%d subcommands, want 10", len(subcommands))
	}
}

// Every trial-running subcommand exposes the shared execution-control
// flags with the canonical usage text. A subcommand that re-declared one
// of them would panic in flag when registering the block, so -h working at
// all covers that. report runs no trials; its -obs names an input
// directory.
func TestCommandsWireCommonFlags(t *testing.T) {
	canonical := []string{
		"  -obs string\n    \trecord per-trial observability snapshots into DIR (see ntier report)\n",
		"  -parallel int\n    \ttrial worker count (0 = one per CPU, 1 = serial)\n",
		"  -resume\n    \tresume the campaign journaled in -state-dir\n",
		"  -state-dir string\n    \trun-state directory for crash-safe journaling\n",
		"  -trial-timeout duration\n    \twall-clock watchdog per trial (0 = none)\n",
	}
	for _, sc := range subcommands {
		t.Run(sc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run([]string{sc.name, "-h"}, &stdout, &stderr); code != 2 {
				t.Fatalf("%s -h = %d, want 2", sc.name, code)
			}
			usage := stderr.String()
			for _, want := range canonical {
				if got := strings.Contains(usage, want); got != (sc.name != "report") {
					t.Errorf("%s -h lists %q with its canonical usage: %v, want %v\n%s",
						sc.name, firstLine(want), got, !got, usage)
				}
			}
		})
	}
}

// The state fingerprint (meta.json) of each journaling subcommand is
// pinned, and its image is the same on every word width, so a state
// directory resumes on any build of the same model and configuration.
func TestStateFingerprintsPinned(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"run", "-hw", "1/1/1/1", "-soft", "50-6-6", "-wl", "10", "-ramp", "1s", "-measure", "1s"}, "d4fe1986ad8bf58d"},
		{[]string{"run", "-hw", "1/1/1/1", "-soft", "50-6-6", "-wl", "10", "-ramp", "1s", "-measure", "1s", "-diagnose"}, "2f97bd8be5162b1a"},
		{[]string{"sweep", "-hw", "1/1/1/1", "-soft", "50-6-6,50-4-4", "-wl", "10,20", "-ramp", "1s", "-measure", "1s"}, "1b783b914ea4146a"},
		{[]string{"sweep", "-hw", "1/1/1/1", "-soft", "50-6-3", "-rate", "20", "-deadline", "1s", "-admission", "-ramp", "1s", "-measure", "1s"}, "c8557ffcb76e38e6"},
		{[]string{"tune", "-hw", "1/1/1/1", "-soft0", "50-6-6", "-ramp", "1s", "-measure", "1s", "-step", "10", "-smallstep", "5", "-q"}, "b32e04697223685a"},
		{[]string{"figures", "-only", "fig8", "-seed", "3", "-out", t.TempDir()}, "b58d7ac8e71c4e36"},
		{[]string{"search", "-hw", "1/1/1/1", "-soft", "50-6-6", "-threads", "2,4", "-conns", "2", "-wl", "10,20", "-budget", "3", "-ramp", "1s", "-measure", "1s", "-q"}, "b473d7902a155144"},
		{[]string{"elastic", "-hw", "1/1/1/1", "-soft", "50-4-4", "-policy", "STATIC", "-trace", "diurnal", "-day", "20s", "-low", "5", "-high", "10", "-ramp", "1s", "-interval", "5s"}, "416bfea7600ea0e8"},
		{[]string{"fleet", "-nodes", "2", "-slots", "2", "-hw", "1/1/1/1", "-soft", "50-6-6", "-wl", "10", "-ramp", "1s", "-measure", "2s", "-placement", "PACKED"}, "62f20bda6efa8a51"},
		{[]string{"chaos", "-hw", "1/1/1/1", "-soft", "50-6-6", "-wl", "10", "-ramp", "1s", "-baseline", "3s", "-grace", "2s", "-recovery", "3s", "-horizon", "5s", "-seeds", "1", "-plans", "1", "-max-events", "1"}, "101f2bce8be87fcc"},
	}
	for _, tc := range cases {
		// The watchdog cuts every trial short: the fingerprint is written
		// when the state directory opens, before any trial runs.
		state := filepath.Join(t.TempDir(), "state")
		var stdout, stderr strings.Builder
		run(append(tc.args, "-trial-timeout", "1ns", "-state-dir", state), &stdout, &stderr)
		data, err := os.ReadFile(filepath.Join(state, "meta.json"))
		if err != nil {
			t.Errorf("%v: %v; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		var meta struct{ Fingerprint string }
		if err := json.Unmarshal(data, &meta); err != nil {
			t.Fatal(err)
		}
		if meta.Fingerprint != tc.want {
			t.Errorf("%s fingerprint %s, want %s", tc.args[0], meta.Fingerprint, tc.want)
		}
	}
}

func TestCurveCSVPath(t *testing.T) {
	cases := []struct {
		path, label string
		many        bool
		want        string
	}{
		{"out.csv", "400-15-6", false, "out.csv"},
		{"out.csv", "400-15-6", true, "out-400-15-6.csv"},
		{"out", "400-15-6", true, "out-400-15-6"},
		{"g.csv", "1/2/1/2 (400-15-6)", true, "g-1_2_1_2 -400-15-6.csv"},
	}
	for _, tc := range cases {
		if got := curveCSVPath(tc.path, tc.label, tc.many); got != tc.want {
			t.Errorf("curveCSVPath(%q, %q, %v) = %q, want %q", tc.path, tc.label, tc.many, got, tc.want)
		}
	}
}
