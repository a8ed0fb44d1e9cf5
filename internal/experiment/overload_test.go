package experiment

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// protectedBase is the seeded topology with the overload-survival policy:
// adaptive admission at the web tier plus a 2-second end-to-end deadline
// propagated down the chain.
func protectedBase() RunConfig {
	cfg := baseConfig(600)
	cfg.Testbed.Resilience = OverloadProtection()
	cfg.Deadline = 2 * time.Second
	return cfg
}

// TestOverloadSurvivalAcceptance is the headline robustness criterion: on
// the seeded topology the protected stack must sustain at least 90% of its
// peak goodput when offered 2x the capacity rate, while the unprotected
// stack collapses far below that at the same offered load.
func TestOverloadSurvivalAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("overload acceptance sweep is expensive; skipped with -short")
	}
	const slaTh = 2 * time.Second
	// Capacity of the seeded 1/2/1/2 topology sits just above 700 req/s
	// (the app tier saturates); 1400 req/s offers twice that.
	rates := []float64{700, 1400}
	curve, err := OverloadSweep(protectedBase(), rates)
	if err != nil {
		t.Fatal(err)
	}
	if err := errors.Join(curve.Errs...); err != nil {
		t.Fatal(err)
	}
	peak := curve.PeakGoodput(slaTh)
	if peak < 600 {
		t.Fatalf("peak goodput %.1f req/s implausibly low for the seeded topology", peak)
	}
	atTwoX := curve.Goodputs(slaTh)[1]
	if atTwoX < 0.9*peak {
		t.Errorf("protected goodput at 2x capacity = %.1f req/s, want >= 90%% of peak %.1f",
			atTwoX, peak)
	}
	if r := curve.Results[1]; r.Shed == 0 {
		t.Error("protected stack survived 2x capacity without shedding anything — the controller never engaged")
	}

	unprot := baseConfig(600)
	unprot.Arrivals = trace.Poisson(rates[1])
	res, err := Run(unprot)
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Goodput(slaTh); g >= 0.9*peak {
		t.Errorf("unprotected goodput at 2x capacity = %.1f req/s, expected collapse below 90%% of peak %.1f",
			g, peak)
	}
}

// smallOverloadConfig is a deliberately tiny deployment for cheap journal
// and determinism tests: one node per tier, short windows.
func smallOverloadConfig() RunConfig {
	return RunConfig{
		Testbed: testbed.Options{
			Hardware:   testbed.Hardware{Web: 1, App: 1, Mid: 1, DB: 1},
			Soft:       testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 3},
			Seed:       5,
			Resilience: OverloadProtection(),
		},
		Users:       100,
		Deadline:    time.Second,
		RampUp:      2 * time.Second,
		Measure:     5 * time.Second,
		Parallelism: 1,
	}
}

func TestOverloadSweepResumesFromJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	rates := []float64{40, 160}
	sweep := func(resume bool) (*OverloadCurve, []byte, int) {
		cfg := smallOverloadConfig()
		st, err := OpenState(dir, "overload-resume-test", resume)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		cfg.State = st
		restored := 0
		cfg.OnTrial = func(key string, wasRestored bool, err error) {
			if wasRestored {
				restored++
			}
		}
		c, err := OverloadSweep(cfg, rates)
		if err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(c.Errs...); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.WriteCSV(&buf, sla.StandardThresholds); err != nil {
			t.Fatal(err)
		}
		return c, buf.Bytes(), restored
	}

	_, csv1, restored1 := sweep(false)
	if restored1 != 0 {
		t.Fatalf("fresh sweep restored %d trials from an empty journal", restored1)
	}
	_, csv2, restored2 := sweep(true)
	if restored2 != len(rates) {
		t.Errorf("resumed sweep restored %d of %d trials", restored2, len(rates))
	}
	if !bytes.Equal(csv1, csv2) {
		t.Errorf("resumed sweep CSV differs from the original:\n%s\nvs\n%s", csv1, csv2)
	}
}

func TestFlashCrowdRecoversAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("flash-crowd trial is expensive; skipped with -short")
	}
	cfg := FlashCrowdConfig{
		Run:        protectedBase(),
		BaseRate:   300,
		SpikeMult:  4, // 1200 req/s, well past the ~700 req/s knee
		SpikeStart: 10 * time.Second,
		SpikeDur:   5 * time.Second,
	}
	cfg.Run.RampUp = 10 * time.Second
	fr, err := RunFlashCrowd(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fr.PreSpikeGoodput <= 0 {
		t.Fatal("no pre-spike goodput baseline")
	}
	spikeShed := 0
	for _, pt := range fr.Timeline {
		at := time.Duration(pt.Second * float64(time.Second))
		if at >= cfg.SpikeStart && at < cfg.SpikeStart+cfg.SpikeDur {
			spikeShed += pt.Shed
		}
	}
	if spikeShed == 0 {
		t.Error("4x spike produced no shed responses — protection never engaged")
	}
	if fr.RecoveryTime < 0 {
		t.Errorf("goodput never recovered to %.0f%% of the pre-spike baseline %.1f req/s",
			flashRecoverFrac*100, fr.PreSpikeGoodput)
	}
	if fr.DrainTime < 0 {
		t.Error("queue backlog never drained back to its pre-spike level")
	}
}

// TestFlashCrowdDeterministic re-runs a small flash-crowd trial and demands
// a bucket-identical timeline: the overload scenario must replay exactly for
// resumable campaigns.
func TestFlashCrowdDeterministic(t *testing.T) {
	run := func() *FlashCrowdResult {
		cfg := FlashCrowdConfig{
			Run:        smallOverloadConfig(),
			BaseRate:   60,
			SpikeMult:  4,
			SpikeStart: 5 * time.Second,
			SpikeDur:   3 * time.Second,
		}
		fr, err := RunFlashCrowd(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a, b := run(), run()
	if len(a.Timeline) != len(b.Timeline) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(a.Timeline), len(b.Timeline))
	}
	for i := range a.Timeline {
		if a.Timeline[i] != b.Timeline[i] {
			t.Fatalf("window %d differs between identical runs: %+v vs %+v",
				i, a.Timeline[i], b.Timeline[i])
		}
	}
	if a.RecoveryTime != b.RecoveryTime || a.DrainTime != b.DrainTime {
		t.Errorf("recovery/drain diverged: %v/%v vs %v/%v",
			a.RecoveryTime, a.DrainTime, b.RecoveryTime, b.DrainTime)
	}
}
