package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
)

func TestSweepRejectsMalformedFlags(t *testing.T) {
	rejectsMalformedFlags(t, "sweep", []flagCase{
		{[]string{"-hw", "1/2/1"}, "-hw"},
		{[]string{"-hw", "a/2/1/2"}, "-hw"},
		{[]string{"-soft", "400-15"}, "-soft"},
		{[]string{"-soft", "400-15-6,junk"}, "-soft"},
		{[]string{"-wl", "1:2"}, "-wl"},
		{[]string{"-wl", "5:1:1"}, "-wl"},
		{[]string{"-wl", "x,y"}, "-wl"},
		{[]string{"-vary", "threads"}, "-sizes"},
		{[]string{"-vary", "bogus", "-sizes", "4,8"}, "-vary"},
		{[]string{"-resume"}, "-state-dir"},
		{[]string{"-no-such-flag"}, "-no-such-flag"},
	})
}

// A pool sweep runs end to end: each size's max-throughput line names its
// allocation and reads what experiment.AllocSweep measures on the axis.
func TestSweepVaryEndToEnd(t *testing.T) {
	for flag, ax := range varyAxes {
		var stdout, stderr strings.Builder
		args := []string{"sweep", "-hw", "1/1/1/1", "-soft", "20-6-4", "-vary", flag, "-sizes", "1,5",
			"-wl", "300", "-ramp", "1s", "-measure", "2s"}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%v exited %d; stderr:\n%s", args, code, stderr.String())
		}
		base := experiment.RunConfig{
			Testbed: testbed.Options{Hardware: testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
				Soft: testbed.SoftAlloc{WebThreads: 20, AppThreads: 6, AppConns: 4}, Seed: 1},
			RampUp: time.Second, Measure: 2 * time.Second, Obs: obs.Config{SLA: 2 * time.Second},
		}
		points, err := experiment.AllocSweep(base, []int{300}, []int{1, 5}, ax)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range points {
			if got := p.Soft.Get(ax); got != []int{1, 5}[i] {
				t.Errorf("-vary %s: point %d has size %d", flag, i, got)
			}
			line := fmt.Sprintf("  %-14s maxTP %8.1f  maxGoodput(2s) %8.1f\n",
				p.Soft, p.Curve.MaxThroughput(), p.Curve.MaxGoodput(2*time.Second))
			if !strings.Contains(stdout.String(), line) {
				t.Errorf("-vary %s: no line %q in\n%s", flag, line, stdout.String())
			}
		}
	}
}
