// Adaptive demonstrates runtime soft-resource control: run the 1/2/1/2
// topology from a badly-allocated starting point, once with a static
// allocation and once with the elastic controller's TOP_JOB policy
// attached, and compare steady-state throughput. The offline Algorithm 1
// (examples/autotune) finds the allocation before deployment; this is the
// complementary online approach from the paper's related-work discussion.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/testbed"
)

// run measures steady-state throughput (70s-100s window) with or without
// the controller, returning TP, the final pool size, and the decisions.
// The trial is an experiment trial whose disturbance attaches the
// controller and counts the requests issued in the window.
func run(threads, users int, controlled bool) (float64, int, []adaptive.ElasticDecision) {
	cfg := experiment.RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: threads, AppConns: 20},
			Seed:     31,
		},
		Users:   users,
		RampUp:  20 * time.Second, // the sessions start over its first 10s
		Measure: 80 * time.Second,
	}
	var (
		ctl  *adaptive.ElasticController
		late uint64
	)
	arm := func(tb *testbed.Testbed) (err error) {
		if controlled {
			ctl, err = adaptive.AttachElastic(tb, adaptive.ElasticConfig{Policy: adaptive.PolicyTopJob}, cfg.RampUp+cfg.Measure)
		}
		return err
	}
	observe := func(issued, _ time.Duration, _ error) {
		if issued >= 70*time.Second {
			late++
		}
	}
	res, _, err := experiment.RunDisturbed(cfg, experiment.Disturbance{Arm: arm, Observe: observe})
	if err != nil {
		log.Fatal(err)
	}
	var decisions []adaptive.ElasticDecision
	if ctl != nil {
		decisions = ctl.Decisions()
	}
	return float64(late) / 30, res.Tomcat[0].Pool(testbed.AppThreads).Capacity, decisions
}

func scenario(name string, threads, users int) {
	fmt.Printf("--- %s: %d threads/server at %d users ---\n", name, threads, users)
	staticTP, _, _ := run(threads, users, false)
	adaptTP, finalCap, decisions := run(threads, users, true)
	fmt.Println("controller decisions:")
	fmt.Print(adaptive.FormatDecisions(decisions))
	if len(decisions) == 0 {
		fmt.Println("  (none)")
	}
	fmt.Printf("steady-state throughput: static %6.1f req/s, adaptive %6.1f req/s\n", staticTP, adaptTP)
	fmt.Printf("final pool size: %d threads/server\n\n", finalCap)
}

func main() {
	scenario("under-allocated", 3, 5000)
	// The over-allocated demo runs below the knee, not past it: from
	// about 4500 users on, an oversized pool fills with piled-up jobs,
	// occupancy can no longer distinguish "too big" from "all needed",
	// and TOP_JOB leaves the pool alone — the observability gap that
	// motivates the paper's offline algorithm (and its remark that
	// choosing correct feedback-control parameters is highly
	// challenging).
	scenario("over-allocated", 300, 4000)
}
