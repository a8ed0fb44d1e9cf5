package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFaultsList(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"faults", "-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, stderr.String())
	}
	for _, name := range []string{"crash-tomcat", "brownout-cjdbc", "retry-storm", "leak-conns", "netspike"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing %q:\n%s", name, stdout.String())
		}
	}
}

// A small end-to-end smoke run: the command completes, prints the
// scenario summary, and writes the timeline CSV.
func TestFaultsSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "timeline.csv")
	args := []string{
		"faults", "-scenario", "crash-tomcat",
		"-hw", "1/2/1/2", "-soft", "200-10-5",
		"-wl", "400", "-ramp", "5s", "-measure", "30s",
		"-csv", csv,
	}
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr %q", args, code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"crash-tomcat", "soft 200-10-5", "resilience:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "second,completed,goodput,errors,cjdbc_busy") {
		t.Errorf("timeline CSV header wrong:\n%s", string(data))
	}
}

// A small flash crowd writes its timeline CSV with the split outcome
// columns and the queued gauge.
func TestFaultsFlashCrowdSmoke(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "timeline.csv")
	args := []string{
		"faults", "-scenario", "flash-crowd", "-hw", "1/1/1/1", "-soft", "50-6-6",
		"-rate", "20", "-spike-at", "2s", "-spike-for", "2s", "-ramp", "1s", "-csv", csv,
	}
	var stdout, stderr strings.Builder
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr %q", args, code, stderr.String())
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "second,completed,goodput,errors,shed,late,queued\n") {
		t.Errorf("timeline CSV header wrong:\n%s", string(data))
	}
}

func TestFaultsRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "faults", []flagCase{
		{[]string{}, "-scenario"},
		{[]string{"-scenario", "no-such-scenario"}, "-scenario"},
		{[]string{"-scenario", "crash-tomcat", "-hw", "1/4/1"}, "-hw"},
		{[]string{"-scenario", "crash-tomcat", "-soft", "400-15"}, "-soft"},
		{[]string{"-scenario", "crash-tomcat", "-soft", "400-15-6,bad"}, "-soft"},
		{[]string{"-scenario", "crash-tomcat", "-wl", "0"}, "-wl"},
		{[]string{"-scenario", "crash-tomcat", "-measure", "20.5s"}, "-measure"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
