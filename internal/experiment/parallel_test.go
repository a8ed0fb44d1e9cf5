package experiment

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
)

func TestForEachIndexCoversAllIndices(t *testing.T) {
	for _, p := range []int{0, 1, 2, 3, 7, 64} {
		const n = 37
		var mu sync.Mutex
		seen := make(map[int]int)
		err := ForEachIndex(context.Background(), n, p, func(i int) error {
			mu.Lock()
			seen[i]++
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if len(seen) != n {
			t.Fatalf("p=%d: ran %d distinct indices, want %d", p, len(seen), n)
		}
		for i, c := range seen {
			if c != 1 {
				t.Errorf("p=%d: index %d ran %d times", p, i, c)
			}
		}
	}
	if err := ForEachIndex(context.Background(), 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Errorf("empty range: %v", err)
	}
}

func TestForEachIndexReturnsLowestIndexError(t *testing.T) {
	// Several indices fail; the reported error must be the lowest one —
	// what a serial loop would have returned.
	for _, p := range []int{1, 4, 16} {
		err := ForEachIndex(context.Background(), 40, p, func(i int) error {
			if i%7 == 5 { // fails at 5, 12, 19, ...
				return fmt.Errorf("trial %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "trial 5 failed" {
			t.Errorf("p=%d: err = %v, want trial 5 failed", p, err)
		}
	}
}

func TestForEachIndexCancelsOnFirstError(t *testing.T) {
	const n, p = 32, 4
	var mu sync.Mutex
	started := make(map[int]bool)
	othersIn := make(chan struct{}, n)
	release := make(chan struct{})
	boom := errors.New("boom")
	err := ForEachIndex(context.Background(), n, p, func(i int) error {
		mu.Lock()
		started[i] = true
		mu.Unlock()
		if i == 2 {
			// Wait until the other three workers hold their first index,
			// fail, and release them only after the error has had ample
			// time to register: no worker may then claim new work.
			for j := 0; j < p-1; j++ {
				<-othersIn
			}
			go func() {
				time.Sleep(250 * time.Millisecond)
				close(release)
			}()
			return boom
		}
		othersIn <- struct{}{}
		<-release
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(started) != p {
		t.Errorf("%d trials started (%v), want exactly the first %d", len(started), started, p)
	}
	for i := 0; i < p; i++ {
		if !started[i] {
			t.Errorf("index %d never started", i)
		}
	}
}

// fastSweepConfig is small enough that a full grid stays test-friendly.
func fastSweepConfig(parallelism int) RunConfig {
	cfg := RunConfig{
		Testbed: testbed.Options{
			Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
			Seed:     21,
		},
		RampUp:      8 * time.Second,
		Measure:     12 * time.Second,
		Parallelism: parallelism,
	}
	return cfg
}

// renderSweep produces every byte the CLIs derive from a curve: the ASCII
// table and the CSV dataset.
func renderSweep(t *testing.T, c *Curve) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(CurveTable("determinism", 2*time.Second, c).String())
	if err := c.WriteCSV(&b, sla.StandardThresholds); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestWorkloadSweepParallelMatchesSerial(t *testing.T) {
	users := []int{300, 500, 700, 900}
	serial, err := WorkloadSweep(fastSweepConfig(1), users)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := WorkloadSweep(fastSweepConfig(4), users)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := renderSweep(t, serial), renderSweep(t, parallel); s != p {
		t.Errorf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

func TestAllocSweepParallelMatchesSerial(t *testing.T) {
	users := []int{400, 800}
	sizes := []int{2, 6, 30}
	render := func(points []AllocPoint) string {
		var b strings.Builder
		for _, p := range points {
			fmt.Fprintf(&b, "%s maxTP %.4f\n", p.Soft, p.Curve.MaxThroughput())
			b.WriteString(renderSweep(t, p.Curve))
		}
		return b.String()
	}
	serial, err := AllocSweep(fastSweepConfig(1), users, sizes, VaryAppThreads)
	if err != nil {
		t.Fatal(err)
	}
	// Parallelism 8 exceeds the 6-trial grid: also exercises worker capping.
	parallel, err := AllocSweep(fastSweepConfig(8), users, sizes, VaryAppThreads)
	if err != nil {
		t.Fatal(err)
	}
	if s, p := render(serial), render(parallel); s != p {
		t.Errorf("parallel alloc sweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", s, p)
	}
}

func TestWorkloadSweepReportsFirstFailingWorkload(t *testing.T) {
	// An unbuildable testbed fails every trial; the sweep must report the
	// lowest workload, exactly as the serial loop did.
	cfg := fastSweepConfig(4)
	cfg.Testbed.Hardware = testbed.Hardware{} // invalid: zero nodes everywhere
	_, err := WorkloadSweep(cfg, []int{100, 200, 300})
	if err == nil {
		t.Fatal("invalid testbed must fail")
	}
	if !strings.Contains(err.Error(), "workload 100") {
		t.Errorf("err = %v, want the first workload (100) reported", err)
	}
	if _, err := AllocSweep(cfg, []int{100, 200}, []int{1, 2}, VaryAppThreads); err == nil {
		t.Fatal("invalid testbed must fail the alloc sweep too")
	}
}
