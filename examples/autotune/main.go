// Autotune runs the paper's Algorithm 1 end to end on the 1/2/1/2 hardware
// configuration: expose the critical hardware resource, infer the minimum
// concurrent jobs that saturate it (intervention analysis + Little's law),
// derive every tier's pool size, and then validate the recommendation with
// a brute-force sweep.
package main

import (
	"fmt"
	"log"
	"time"

	ntier "github.com/softres/ntier"
)

func main() {
	hw, err := ntier.ParseHardware("1/2/1/2")
	if err != nil {
		log.Fatal(err)
	}
	s0, err := ntier.ParseSoftAlloc("400-15-20")
	if err != nil {
		log.Fatal(err)
	}

	cfg := ntier.TunerConfig{
		Base: ntier.RunConfig{
			Testbed: ntier.TestbedOptions{Hardware: hw, Soft: s0, Seed: 5},
			RampUp:  20 * time.Second,
			Measure: 35 * time.Second,
		},
		Logf: func(format string, args ...any) {
			fmt.Printf("  tuner: "+format+"\n", args...)
		},
	}
	rep, err := ntier.Tune(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(rep.String())

	// Validate: the recommendation should sit near the brute-force optimum.
	fmt.Println("\nBrute-force validation (max TP near the knee):")
	base := cfg.Base
	base.Testbed.Soft = rep.ReservedSoft
	rec := rep.Recommended.AppThreads
	sizes := []int{rec / 2, rec, rec * 2, rec * 8}
	users := []int{rep.SaturationWL, rep.SaturationWL + 600}
	points, err := ntier.AllocSweep(base, users, sizes, ntier.AppThreads)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range points {
		marker := ""
		if p.Soft.AppThreads == rec {
			marker = "  <- algorithm's choice"
		}
		fmt.Printf("  threads %3d: max TP %8.1f req/s%s\n",
			p.Soft.AppThreads, p.Curve.MaxThroughput(), marker)
	}
}
