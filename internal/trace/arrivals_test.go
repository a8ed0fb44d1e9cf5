package trace

import (
	"math"
	"testing"
	"time"

	"github.com/softres/ntier/internal/rng"
)

// drain collects n successive gaps from a source.
func drain(src ArrivalSource, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = src.Next()
	}
	return out
}

func TestPoissonMeanGap(t *testing.T) {
	spec := Poisson(100) // mean gap 10ms
	src := spec.NewSource(rng.NewStream(7, "arrivals"))
	const n = 20000
	var sum time.Duration
	for i := 0; i < n; i++ {
		g := src.Next()
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / n
	if mean < 9*time.Millisecond || mean > 11*time.Millisecond {
		t.Errorf("mean gap %v, want ~10ms", mean)
	}
}

func TestArrivalSourcesDeterministic(t *testing.T) {
	specs := []ArrivalSpec{
		Poisson(50),
		FlashCrowd(40, 200, 5*time.Second, 2*time.Second),
		Schedule(Phase{Rate: 10, RampTo: 100, For: 8 * time.Second}, Phase{Rate: 100}),
		MMPP(MMPPState{Rate: 20, Mean: time.Second}, MMPPState{Rate: 200, Mean: 500 * time.Millisecond}),
	}
	for _, spec := range specs {
		a := drain(spec.NewSource(rng.NewStream(42, "arrivals")), 500)
		b := drain(spec.NewSource(rng.NewStream(42, "arrivals")), 500)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: gap %d differs between identical seeds: %v vs %v", spec, i, a[i], b[i])
			}
		}
		c := drain(spec.NewSource(rng.NewStream(43, "arrivals")), 500)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical realizations", spec)
		}
	}
}

func TestScheduleRateAt(t *testing.T) {
	s := Schedule(
		Phase{Rate: 10, For: 2 * time.Second},
		Phase{Rate: 100, RampTo: 200, For: 4 * time.Second},
		Phase{Rate: 30},
	)
	cases := []struct {
		t    time.Duration
		want float64
	}{
		{0, 10},
		{time.Second, 10},
		{2 * time.Second, 100},   // ramp start
		{4 * time.Second, 150},   // halfway up the ramp
		{6*time.Second - 1, 200}, // ~ramp end
		{6 * time.Second, 30},    // final phase
		{time.Hour, 30},          // terminal rate holds forever
	}
	for _, c := range cases {
		got := s.RateAt(c.t)
		if math.Abs(got-c.want) > c.want*0.01 {
			t.Errorf("RateAt(%v) = %g, want %g", c.t, got, c.want)
		}
	}
	if got := s.MaxRate(); got != 200 {
		t.Errorf("MaxRate %g, want 200 (ramp peak)", got)
	}
}

func TestFlashCrowdShape(t *testing.T) {
	s := FlashCrowd(50, 400, 20*time.Second, 10*time.Second)
	if got := s.RateAt(10 * time.Second); got != 50 {
		t.Errorf("pre-spike rate %g, want 50", got)
	}
	if got := s.RateAt(25 * time.Second); got != 400 {
		t.Errorf("spike rate %g, want 400", got)
	}
	if got := s.RateAt(40 * time.Second); got != 50 {
		t.Errorf("post-spike rate %g, want 50", got)
	}
	if got := s.MaxRate(); got != 400 {
		t.Errorf("MaxRate %g, want 400", got)
	}
}

// TestScheduleRealizedRateFollowsSchedule bins one realization into seconds
// and checks the thinning sampler actually modulates the rate.
func TestScheduleRealizedRateFollowsSchedule(t *testing.T) {
	s := FlashCrowd(50, 500, 10*time.Second, 5*time.Second)
	src := s.NewSource(rng.NewStream(9, "arrivals"))
	counts := make([]int, 20)
	var clock time.Duration
	for {
		clock += src.Next()
		sec := int(clock / time.Second)
		if sec >= len(counts) {
			break
		}
		counts[sec]++
	}
	pre, spike := 0, 0
	for s := 2; s < 8; s++ {
		pre += counts[s]
	}
	for s := 10; s < 15; s++ {
		spike += counts[s]
	}
	preRate := float64(pre) / 6
	spikeRate := float64(spike) / 5
	if preRate < 30 || preRate > 70 {
		t.Errorf("pre-spike realized rate %.1f/s, want ~50", preRate)
	}
	if spikeRate < 400 || spikeRate > 600 {
		t.Errorf("spike realized rate %.1f/s, want ~500", spikeRate)
	}
}

func TestMMPPCyclesStates(t *testing.T) {
	// Strongly separated rates: the realized overall rate must sit between
	// the two state rates, which only happens if the process switches.
	s := MMPP(
		MMPPState{Rate: 10, Mean: 500 * time.Millisecond},
		MMPPState{Rate: 1000, Mean: 500 * time.Millisecond},
	)
	if got := s.MaxRate(); got != 1000 {
		t.Fatalf("MaxRate %g, want 1000", got)
	}
	src := s.NewSource(rng.NewStream(3, "arrivals"))
	var clock time.Duration
	n := 0
	for clock < 30*time.Second {
		clock += src.Next()
		n++
	}
	rate := float64(n) / clock.Seconds()
	// Expected long-run rate: (10+1000)/2 = 505 with equal sojourns.
	if rate < 350 || rate > 650 {
		t.Errorf("long-run MMPP rate %.1f/s, want ~505", rate)
	}
}

func TestArrivalSpecStrings(t *testing.T) {
	cases := []struct {
		spec ArrivalSpec
		want string
	}{
		{Poisson(120), "poisson(120/s)"},
		{FlashCrowd(50, 200, 10*time.Second, 5*time.Second), "sched(50/sx10s,200/sx5s,50/s)"},
		{Schedule(Phase{Rate: 10, RampTo: 90, For: 30 * time.Second}, Phase{Rate: 90}), "sched(10..90/sx30s,90/s)"},
		{Schedule(Phase{Rate: 10, For: 30 * time.Second}, Phase{Rate: 10, RampTo: 90, For: time.Minute}), "sched(10/sx30s,10..90/sx1m0s)"},
		{MMPP(MMPPState{Rate: 5, Mean: time.Second}), "mmpp(5/s@1s)"},
	}
	for _, c := range cases {
		if got := c.spec.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestCtxRemaining(t *testing.T) {
	var nilCtx *Ctx
	if nilCtx.remaining(time.Second) < time.Hour {
		t.Error("nil ctx should have an unbounded budget")
	}
	c := &Ctx{}
	if c.remaining(time.Second) < time.Hour {
		t.Error("zero deadline should mean an unbounded budget")
	}
	c.Deadline = 3 * time.Second
	if got := c.remaining(time.Second); got != 2*time.Second {
		t.Errorf("remaining %v, want 2s", got)
	}
	if got := c.remaining(5 * time.Second); got != -2*time.Second {
		t.Errorf("remaining past deadline %v, want -2s", got)
	}
}
