package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/pins.txt instead of checking it")

// TestDigestPins pins one chaos trial on a resilient 1/2/1/2 under a
// fixed-seed plan that crashes an application server, browns out a
// database, leaks connections and spikes the link, all overlapping, by its
// verdict's JSON image: one "pin field digest" line per top-level field in
// testdata/pins.txt, as internal/experiment's pins do.
//
// After an intentional behaviour change, rewrite the file with
//
//	go test ./internal/chaos -run DigestPins -update-pins
//
// and name the changed pin in CHANGES.md: `git diff` shows the moved
// fields.
func TestDigestPins(t *testing.T) {
	res := tier.DefaultResilienceConfig()
	cfg := TrialConfig{
		Run: experiment.RunConfig{
			Testbed: testbed.Options{
				Hardware:   testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:       testbed.SoftAlloc{WebThreads: 100, AppThreads: 10, AppConns: 6},
				Seed:       5,
				Resilience: &res,
			},
			Users:     300,
			ThinkMean: 500 * time.Millisecond,
			RampUp:    2 * time.Second,
		},
		Baseline:    4 * time.Second,
		Grace:       3 * time.Second,
		Recovery:    4 * time.Second,
		DrainBudget: 30 * time.Second,
	}
	plan := fault.Plan{
		Events: []fault.Event{
			fault.Crash("tomcat2", 500*time.Millisecond, 2*time.Second),
			fault.Brownout("mysql1", 1*time.Second, 3*time.Second, 0.3),
			fault.ConnLeak("tomcat1/conns", 1*time.Second, 2500*time.Millisecond, 3),
			fault.NetSpike("link", 1500*time.Millisecond, 2500*time.Millisecond, 4*time.Millisecond),
		},
		JitterFrac: 0.2,
	}
	v, err := RunTrial(cfg, plan)
	if err != nil {
		t.Fatal(err)
	}
	img, err := json.Marshal(v)
	var fields map[string]json.RawMessage
	if err == nil {
		err = json.Unmarshal(img, &fields)
	}
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	for f, b := range fields {
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("chaos-resilient-plan %s %x\n", f, sum[:12]))
	}
	sort.Strings(lines)
	got := strings.Join(lines, "")
	if *updatePins {
		if err := os.WriteFile("testdata/pins.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile("testdata/pins.txt"); err != nil || got != string(want) {
		t.Errorf("verdict image moved (%v):\n--- now ---\n%s--- pinned ---\n%s", err, got, want)
	}
}
