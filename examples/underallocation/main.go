// Underallocation reproduces the paper's §III-A study (Fig. 4): sweep the
// Tomcat servlet thread pool on the 1/2/1/2 hardware configuration and
// watch the soft resource become the system bottleneck — throughput capped
// while every hardware resource idles — then watch over-allocation give
// some of the win back.
package main

import (
	"fmt"
	"log"
	"time"

	ntier "github.com/softres/ntier"
	"github.com/softres/ntier/internal/experiment"
)

func main() {
	hw, err := ntier.ParseHardware("1/2/1/2")
	if err != nil {
		log.Fatal(err)
	}
	// Apache workers and DB connections are fixed ample (400 / 20) so the
	// only degree of freedom is the Tomcat thread pool.
	soft, err := ntier.ParseSoftAlloc("400-15-20")
	if err != nil {
		log.Fatal(err)
	}
	base := ntier.RunConfig{
		Testbed: ntier.TestbedOptions{Hardware: hw, Soft: soft, Seed: 7},
		RampUp:  25 * time.Second,
		Measure: 40 * time.Second,
	}

	users := []int{4400, 5200, 6000}
	sizes := []int{6, 10, 20, 200}
	points, err := ntier.AllocSweep(base, users, sizes, ntier.AppThreads)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Tomcat thread-pool sweep on 1/2/1/2 (goodput within 2s):")
	var curves []*ntier.Curve
	for _, p := range points {
		curves = append(curves, p.Curve)
	}
	fmt.Print(ntier.CurveTable("", 2*time.Second, curves...).String())

	fmt.Println("\nWhy: pool saturation vs hardware utilization at workload 6000")
	fmt.Printf("%-10s %16s %18s %14s\n", "pool size", "pool saturated", "tomcat CPU busy", "tomcat GC")
	for _, p := range points {
		last := p.Curve.Results[len(p.Curve.Results)-1]
		tc := last.Tomcat[0]
		pool := tc.Pool(ntier.AppThreads)
		fmt.Printf("%-10d %15.1f%% %17.1f%% %13.1f%%\n",
			p.Soft.AppThreads, pool.Saturated*100,
			experiment.TierCPU(last.Tomcat)*100, tc.GC.GCFraction*100)
	}
	fmt.Println("\nReading: size 6 saturates the pool while the CPU idles (soft")
	fmt.Println("bottleneck); size 20 fills the CPU; size 200 pays GC and scheduling")
	fmt.Println("overhead on the critical CPU and gives part of the gain back.")
}
