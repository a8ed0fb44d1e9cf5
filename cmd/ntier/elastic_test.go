package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs is the compressed policy-vs-static sweep of the CI elastic
// smoke step: a 2-minute diurnal day on 1/1/1/1, well under a second.
func smokeArgs() []string {
	return []string{
		"elastic", "-hw", "1/1/1/1", "-soft", "50-4-4", "-policy", "STATIC,TOP_JOB",
		"-trace", "diurnal", "-day", "2m", "-low", "20", "-high", "60",
		"-ramp", "10s", "-interval", "15s", "-cooldown", "30s",
	}
}

// The CI smoke sweep: both policies scored, a winner named, TOP_JOB's
// decision log printed, and one timeline CSV per cell with the units gauge.
func TestElasticSmoke(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "tl")
	var stdout, stderr strings.Builder
	if code := run(append(smokeArgs(), "-timeline-csv", prefix), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{"elastic sweep 1/1/1/1 50-4-4", "STATIC", "TOP_JOB", "goodput/unit", "best on diurnal:", "decision log [TOP_JOB on diurnal]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	for _, policy := range []string{"static", "top_job"} {
		data, err := os.ReadFile(prefix + "-" + policy + "-diurnal.csv")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "second,completed,goodput,errors,shed,late,units\n") {
			t.Errorf("%s timeline CSV header wrong:\n%s", policy, string(data))
		}
	}
}

// A journaled sweep resumed from its state directory restores every cell
// and prints byte-identical output.
func TestElasticResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	var first, second, stderr strings.Builder
	if code := run(append(smokeArgs(), "-state-dir", dir), &first, &stderr); code != 0 {
		t.Fatalf("journaled run = %d, stderr:\n%s", code, stderr.String())
	}
	if code := run(append(smokeArgs(), "-state-dir", dir, "-resume"), &second, &stderr); code != 0 {
		t.Fatalf("resumed run = %d, stderr:\n%s", code, stderr.String())
	}
	if first.String() != second.String() {
		t.Errorf("resumed output differs:\n--- journaled ---\n%s--- resumed ---\n%s", first.String(), second.String())
	}
}

func TestElasticRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "elastic", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-soft", "400-15"}, "-soft"},
		{[]string{"-policy", "BOGUS"}, "-policy"},
		{[]string{"-trace", "sunny"}, "-trace"},
		{[]string{"-policy", "SOFTMAX", "-calib-soft", "1-2"}, "-calib-soft"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-day", "25s", "-window", "10s"}, "-day"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}
