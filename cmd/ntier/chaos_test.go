package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/softres/ntier/internal/fault"
)

// chaosArgs is a chaos invocation on the compressed timeline shared by the
// smoke tests, so a full campaign trial stays in the tens of milliseconds.
func chaosArgs(extra ...string) []string {
	args := []string{
		"chaos", "-hw", "1/1/1/1", "-soft", "50-6-6", "-wl", "10", "-think", "400ms",
		"-ramp", "1s", "-baseline", "3s", "-grace", "2s", "-recovery", "3s",
		"-drain", "30s", "-horizon", "5s",
	}
	return append(args, extra...)
}

// A small clean campaign: all trials pass, the verdict table and CSV are
// written, and the exit code is zero.
func TestChaosCleanCampaignSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "verdicts.csv")
	args := chaosArgs(
		"-seeds", "1", "-plans", "2", "-max-events", "2",
		"-csv", csv,
	)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"chaos campaign:", "seed=0/plan=0", "seed=0/plan=1", "2 trials:", "verdict CSV written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "trial,topo_seed,plan_seed,events,class") {
		t.Errorf("verdict CSV header wrong:\n%s", string(data))
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n"); lines != 2 {
		t.Errorf("verdict CSV has %d data rows, want 2:\n%s", lines, string(data))
	}
}

// The planted revert-deficit bug must fail the campaign (exit 1), name
// the leak in the verdict table, and drop a minimized repro plan that
// -replay loads and reproduces.
func TestChaosPlantedBugWritesReproAndReplays(t *testing.T) {
	repros := filepath.Join(t.TempDir(), "repros")
	args := chaosArgs(
		"-seeds", "1", "-plans", "1", "-min-events", "1", "-max-events", "1",
		"-seed", "6", // seed 6's single-event 1/1/1/1 plan is a conn leak
		"-plant-leak-deficit", "1", "-shrink", "40",
		"-repro", repros,
	)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("run(%v) = %d, want 1; stderr:\n%s\nstdout:\n%s", args, code, stderr.String(), stdout.String())
	}
	out := stdout.String()
	for _, want := range []string{"invariant", "leak", "repro plan(s) written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	path := filepath.Join(repros, "seed0-plan0.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.ParsePlan(data)
	if err != nil {
		t.Fatalf("repro plan does not load: %v", err)
	}
	if len(plan.Events) == 0 || len(plan.Events) > 2 {
		t.Fatalf("repro plan not minimal: %v", plan.Events)
	}

	// Replaying the repro with the same planted bug reproduces the
	// invariant violation and exits 1.
	stdout.Reset()
	stderr.Reset()
	replayArgs := chaosArgs(
		"-seed", "6", "-plant-leak-deficit", "1", "-replay", path,
	)
	if code := run(replayArgs, &stdout, &stderr); code != 1 {
		t.Fatalf("replay exit %d, want 1; stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "violation:") {
		t.Errorf("replay output missing the violation:\n%s", stdout.String())
	}

	// Without the planted bug the same plan is clean: exit 0.
	stdout.Reset()
	stderr.Reset()
	cleanArgs := chaosArgs("-seed", "6", "-replay", path)
	if code := run(cleanArgs, &stdout, &stderr); code != 0 {
		t.Fatalf("clean replay exit %d; stderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
	}
}

func TestChaosReplayRejectsBadPlan(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"events":[{"kind":"crash"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"chaos", "-replay", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "bad.json") {
		t.Errorf("stderr does not name the file: %q", stderr.String())
	}
	if code := run([]string{"chaos", "-replay", filepath.Join(dir, "missing.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file exit %d, want 1", code)
	}
}

// -state-dir + -resume restore journaled verdicts instead of re-running.
func TestChaosResumeRestoresVerdicts(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	args := chaosArgs(
		"-seeds", "1", "-plans", "2", "-max-events", "2", "-state-dir", state,
	)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("first run exit %d, stderr:\n%s", code, stderr.String())
	}
	first := stdout.String()

	stdout.Reset()
	stderr.Reset()
	if code := run(append(args, "-resume"), &stdout, &stderr); code != 0 {
		t.Fatalf("resume exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := strings.Count(stderr.String(), "(journaled)"); got != 2 {
		t.Errorf("resume restored %d verdicts from the journal, want 2; stderr:\n%s", got, stderr.String())
	}
	if stdout.String() != first {
		t.Errorf("resumed report differs from the original:\n--- first\n%s\n--- resume\n%s", first, stdout.String())
	}
}

// The campaign's fingerprint leaves the population out, so a resume at
// another -wl must be refused by the state's own fingerprint.
func TestChaosResumeRefusesAnotherWorkload(t *testing.T) {
	state := filepath.Join(t.TempDir(), "state")
	args := chaosArgs("-seeds", "1", "-plans", "1", "-max-events", "1", "-state-dir", state)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("first run exit %d, stderr:\n%s", code, stderr.String())
	}
	stderr.Reset()
	if code := run(append(args, "-resume", "-wl", "20"), &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), "fingerprint mismatch") {
		t.Errorf("resume at -wl 20 exit %d, want 1 with a fingerprint mismatch; stderr:\n%s", code, stderr.String())
	}
}

// The planted-bug path requires deterministic fault timing, so -plant
// forces the jitter fraction to zero.
func TestChaosPlantForcesZeroJitter(t *testing.T) {
	repro := filepath.Join(t.TempDir(), "r")
	args := chaosArgs(
		"-seeds", "1", "-plans", "1", "-min-events", "1", "-max-events", "1",
		"-seed", "6", "-jitter", "0.3", "-plant-leak-deficit", "1", "-repro", repro,
	)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (planted bug caught); stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(filepath.Join(repro, "seed0-plan0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var pl fault.Plan
	if err := json.Unmarshal(data, &pl); err != nil {
		t.Fatal(err)
	}
	if pl.JitterFrac != 0 {
		t.Errorf("planted campaign generated jittered plans (jitter %g)", pl.JitterFrac)
	}
}

func TestChaosRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "chaos", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-soft", "400-15"}, "-soft"},
		{[]string{"-seeds", "0"}, "-seeds"},
		{[]string{"-plans", "-1"}, "-plans"},
		{[]string{"-jitter", "1.5"}, "-jitter"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
