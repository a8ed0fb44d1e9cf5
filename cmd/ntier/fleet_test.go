package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Compressed-timeline flags shared by the smoke tests: a tiny 2-tenant
// fleet with fast clients so a full sweep stays under a second.
func fastFleet() []string {
	return []string{
		"fleet", "-nodes", "4", "-slots", "2", "-hw", "1/1/1/1", "-soft", "50-6-6",
		"-wl", "100,400", "-ramp", "5s", "-measure", "15s",
	}
}

// -plan prints every requested placement without simulating.
func TestFleetPlanOnly(t *testing.T) {
	args := append(fastFleet(), "-placement", "PACKED,GREEDY", "-plan")
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"PACKED:", "GREEDY:", "t1/apache1", "t2/mysql1"} {
		if !strings.Contains(out, want) {
			t.Errorf("plan output missing %q:\n%s", want, out)
		}
	}
}

// A small sweep: per-tenant rows, SLO column, and the CSV land.
func TestFleetSweepSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "fleet.csv")
	args := append(fastFleet(), "-placement", "PACKED,SPREAD", "-csv", csv)
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"fleet sweep:", "PACKED", "SPREAD", "t1", "t2", "goodput", "csv written"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "placement,tenants,load_scale,tenant") {
		t.Errorf("CSV header wrong:\n%s", string(data))
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n"); lines != 4 {
		t.Errorf("CSV has %d data rows, want 4 (2 placements x 2 tenants):\n%s", lines, string(data))
	}
}

// The interference matrix renders with one row per aggressor.
func TestFleetInterferenceSmoke(t *testing.T) {
	args := append(fastFleet(), "-placement", "PACKED", "-interference", "-aggr-scale", "3")
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"interference under PACKED", "aggr \\ victim", "t1 x3", "t2 x3", "baseline goodput"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// An open-loop tenant declared as open:RATE runs alongside a closed one.
func TestFleetOpenTenant(t *testing.T) {
	args := []string{
		"fleet", "-nodes", "4", "-slots", "2", "-hw", "1/1/1/1", "-soft", "50-6-6",
		"-wl", "100,open:40", "-ramp", "5s", "-measure", "15s",
		"-placement", "SPREAD",
	}
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	if out := stdout.String(); !strings.Contains(out, "t2") {
		t.Errorf("open tenant missing from output:\n%s", out)
	}
}

func TestFleetRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "fleet", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-soft", "400-15"}, "-soft"},
		{[]string{"-wl", "0"}, "-wl"},
		{[]string{"-wl", "open:-4"}, "-wl"},
		{[]string{"-wl", "100,200", "-names", "a"}, "-names"},
		{[]string{"-wl", "100,200", "-soft", "50-6-6,50-6-6,50-6-6"}, "-soft"},
		{[]string{"-placement", "RANDOM"}, "-placement"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
