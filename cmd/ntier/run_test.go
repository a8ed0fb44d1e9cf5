package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files from the current build")

// diagnoseArgs is a short `ntier run -diagnose` trial on 1/1/1/1 at wl users.
func diagnoseArgs(wl string) []string {
	return []string{"run", "-hw", "1/1/1/1", "-soft", "400-30-20", "-wl", wl,
		"-ramp", "5s", "-measure", "20s", "-diagnose"}
}

// TestRunDiagnoseGolden compares `ntier run -diagnose` stdout byte-for-byte
// against committed golden files: a saturated trial (the Tomcat CPU pinned
// in every window, a single bottleneck) and a lighter one (the Tomcat CPU
// saturated in a few windows only, no pattern). Regenerate deliberately
// with
//
//	go test ./cmd/ntier -run RunDiagnoseGolden -update-golden
func TestRunDiagnoseGolden(t *testing.T) {
	for _, tc := range []struct{ name, wl string }{
		{"saturated", "3000"},
		{"light", "2400"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(diagnoseArgs(tc.wl), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			path := filepath.Join("testdata", "run-diagnose-"+tc.name+".txt")
			if *updateGolden {
				if err := os.WriteFile(path, []byte(stdout.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if stdout.String() != string(want) {
				t.Errorf("stdout differs from %s:\n--- got ---\n%s--- want ---\n%s", path, stdout.String(), want)
			}
		})
	}
}

// A journaled -diagnose run resumed from its state directory classifies
// the journal's utilization series and prints the same diagnosis.
func TestRunDiagnoseResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	args := append(diagnoseArgs("2400"), "-state-dir", dir)
	var first, second, stderr strings.Builder
	if code := run(args, &first, &stderr); code != 0 {
		t.Fatalf("journaled run = %d, stderr:\n%s", code, stderr.String())
	}
	if code := run(append(args, "-resume"), &second, &stderr); code != 0 {
		t.Fatalf("resumed run = %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(first.String(), "bottleneck pattern: none (20 windows") {
		t.Errorf("journaled run printed no diagnosis:\n%s", first.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output differs:\n--- journaled ---\n%s--- resumed ---\n%s", first.String(), second.String())
	}
}
