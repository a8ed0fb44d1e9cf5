package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/softres/ntier/internal/obs"
)

func fixtureDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for i, wl := range []int{5000, 5600} {
		tr := &obs.TrialObs{
			Hardware: "1/2/1/2", Soft: "400-6-6", Workload: wl, Seed: 1,
			Start: 40, Interval: 1,
			Summary: obs.TrialSummary{
				Workload: wl, Goodput: 500 + float64(i), Throughput: 510, SLASeconds: 2,
				Hardware: []obs.HWResource{{Server: "tomcat1", Tier: "tomcat", Resource: "CPU", Util: 0.6}},
				Soft: []obs.SoftResource{{Name: "tomcat1/threads", Tier: "tomcat",
					Capacity: 6, Util: 0.99, Saturated: 0.95}},
			},
			Series: []obs.Series{{Name: "tomcat1/cpu", Kind: obs.KindRate, Values: []float64{0.5, 0.6}}},
		}
		if err := obs.WriteFile(dir, tr); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestReport(t *testing.T) {
	dir := fixtureDir(t)
	var out, errb strings.Builder
	if code := run([]string{"report", "-obs", dir}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"=== 1/2/1/2 400-6-6 ===",
		"soft: tomcat1/threads (sat 95%)",
		"soft-bottleneck",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("stdout missing %q:\n%s", want, text)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "report.csv")); err != nil {
		t.Error(err)
	}
	svgs, _ := filepath.Glob(filepath.Join(dir, "obs-*.svg"))
	if len(svgs) != 2 {
		t.Errorf("svg timelines = %d, want 2", len(svgs))
	}
}

func TestReportNoSVGAndOut(t *testing.T) {
	dir := fixtureDir(t)
	outDir := t.TempDir()
	var out, errb strings.Builder
	if code := run([]string{"report", "-obs", dir, "-out", outDir, "-no-svg"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if _, err := os.Stat(filepath.Join(outDir, "report.csv")); err != nil {
		t.Error(err)
	}
	svgs, _ := filepath.Glob(filepath.Join(outDir, "obs-*.svg"))
	if len(svgs) != 0 {
		t.Errorf("-no-svg wrote %d timelines", len(svgs))
	}
}

func TestReportErrors(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"report"}, &out, &errb); code != 2 {
		t.Fatalf("missing -obs: exit %d", code)
	}
	errb.Reset()
	if code := run([]string{"report", "-obs", t.TempDir()}, &out, &errb); code != 1 {
		t.Fatalf("empty dir: exit %d", code)
	}
	if !strings.Contains(errb.String(), "no obs-*.json snapshots") {
		t.Fatalf("unhelpful empty-dir error: %s", errb.String())
	}
}

func TestReportRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "report", []flagCase{
		{[]string{}, "-obs"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
		// Below 0 every resource would count as saturated, above 1 none.
		{[]string{"-obs", "x", "-hw-saturation", "-1"}, "-hw-saturation"},
		{[]string{"-obs", "x", "-soft-saturation", "1.5"}, "-soft-saturation"},
	})
}
