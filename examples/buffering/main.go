// Buffering reproduces the paper's §III-C study (Fig. 6-8): under high
// workload, Apache workers park in TCP lingering-close waiting for client
// FINs. A small worker pool then starves the back-end — C-JDBC CPU
// utilization *decreases* as workload increases — while a large pool acts
// as a request buffer and keeps the pipeline full.
package main

import (
	"fmt"
	"log"
	"time"

	ntier "github.com/softres/ntier"
)

func main() {
	hw, err := ntier.ParseHardware("1/4/1/4")
	if err != nil {
		log.Fatal(err)
	}
	soft, err := ntier.ParseSoftAlloc("300-6-20")
	if err != nil {
		log.Fatal(err)
	}
	base := ntier.RunConfig{
		Testbed: ntier.TestbedOptions{Hardware: hw, Soft: soft, Seed: 11},
		RampUp:  25 * time.Second,
		Measure: 40 * time.Second,
	}

	fmt.Println("C-JDBC CPU utilization vs workload (note the small pools *decline*):")
	users := []int{6600, 7200, 7800}
	points, err := ntier.AllocSweep(base, users, []int{100, 300, 400}, ntier.WebThreads)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-9s", "workload")
	for _, p := range points {
		fmt.Printf(" %10d", p.Soft.WebThreads)
	}
	fmt.Println(" (Apache workers)")
	for i, n := range users {
		fmt.Printf("%-9d", n)
		for _, p := range points {
			fmt.Printf(" %9.1f%%", p.Curve.Results[i].CJDBC[0].CPUUtil*100)
		}
		fmt.Println()
	}

	// Per-second view of the 300-worker pool at high workload: active
	// workers pinned at the cap, few of them actually talking to Tomcat.
	cfg := base
	cfg.Users = 7400
	cfg.Timeline = true
	res, err := ntier.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tl := res.Timeline
	fmt.Printf("\nApache internals, 300 workers, workload 7400 (first 15 seconds):\n")
	fmt.Printf("%-5s %10s %12s %12s %8s %12s\n", "sec", "processed", "PT_total", "PT_connTC", "active", "connTomcat")
	for i := 0; i < 15 && i < len(tl.Processed); i++ {
		act, conn := 0.0, 0.0
		if i < len(tl.ActiveRaw) {
			act, conn = tl.ActiveRaw[i], tl.ConnectRaw[i]
		}
		fmt.Printf("%-5d %10.0f %10.1fms %10.1fms %8.0f %12.0f\n",
			i, tl.Processed[i], tl.PTTotalMS[i], tl.PTConnectMS[i], act, conn)
	}
	fmt.Println("\nReading: nearly all 300 workers are busy (active ≈ cap) but only a")
	fmt.Println("fraction interact with the Tomcat tier — the rest wait for client")
	fmt.Println("FINs, so the back-end runs dry. Re-run with 400 workers to see the")
	fmt.Println("buffer absorb the close-wait and keep connTomcat high.")
}
