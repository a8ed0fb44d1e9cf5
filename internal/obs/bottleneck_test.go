package obs

import (
	"math"
	"strings"
	"testing"
)

// Canned-series helpers for golden detector tests.

func cpu(server, tier string, util, gc float64) HWResource {
	return HWResource{Server: server, Tier: tier, Resource: "CPU", Util: util, GCShare: gc}
}

func pl(name, tier string, capacity int, util, sat float64) SoftResource {
	return SoftResource{Name: name, Tier: tier, Capacity: capacity, Util: util, Saturated: sat}
}

// idleTrial models a Fig. 2 step: goodput capped, every hardware resource
// idle, the Tomcat pools pinned full with waiters.
func idleTrial(wl int, goodput float64) TrialSummary {
	return TrialSummary{
		Workload: wl, Goodput: goodput, Throughput: goodput + 5, SLASeconds: 2,
		Hardware: []HWResource{
			cpu("apache1", "apache", 0.30, 0),
			cpu("tomcat1", "tomcat", 0.55, 0.02),
			cpu("cjdbc1", "cjdbc", 0.45, 0.03),
			cpu("mysql1", "mysql", 0.40, 0),
			{Server: "mysql1", Tier: "mysql", Resource: "disk", Util: 0.25},
		},
		Soft: []SoftResource{
			pl("apache1/workers", "apache", 400, 0.20, 0),
			pl("tomcat1/threads", "tomcat", 6, 0.99, 0.92),
			pl("tomcat1/conns", "tomcat", 6, 0.97, 0.88),
		},
	}
}

func TestJudgeClassification(t *testing.T) {
	s := TrialSummary{
		Hardware: []HWResource{
			cpu("apache1", "apache", 0.40, 0),
			cpu("cjdbc1", "cjdbc", 0.99, 0.33),
			cpu("mysql1", "mysql", 0.96, 0),
		},
		Soft: []SoftResource{
			pl("tomcat1/threads", "tomcat", 200, 0.50, 0),
			pl("tomcat1/conns", "tomcat", 200, 0.90, 0.70),
		},
	}
	v := Judge(s, JudgeConfig{})
	if v.MostUtilized.Server != "cjdbc1" {
		t.Fatalf("MostUtilized = %v, want cjdbc1", v.MostUtilized)
	}
	if len(v.SaturatedHW) != 2 || v.SaturatedHW[0].Server != "cjdbc1" || v.SaturatedHW[1].Server != "mysql1" {
		t.Fatalf("SaturatedHW = %v, want [cjdbc1 mysql1] by utilization", v.SaturatedHW)
	}
	if !v.HardwareLimited() || v.SoftLimited() {
		t.Fatalf("hardware-saturated trial misclassified: %+v", v)
	}
	if len(v.SaturatedSoft) != 1 || v.SaturatedSoft[0].Name != "tomcat1/conns" {
		t.Fatalf("SaturatedSoft = %v, want [tomcat1/conns]", v.SaturatedSoft)
	}
	if got := v.MostUtilized.String(); got != "cjdbc1 CPU 99% (GC 33%)" {
		t.Fatalf("HWResource.String() = %q", got)
	}
}

func TestJudgeSoftLimited(t *testing.T) {
	v := Judge(idleTrial(5400, 500), JudgeConfig{})
	if v.HardwareLimited() {
		t.Fatalf("all-idle hardware reported saturated: %v", v.SaturatedHW)
	}
	if !v.SoftLimited() {
		t.Fatalf("saturated pools not reported: %+v", v)
	}
}

func TestStepsAttribution(t *testing.T) {
	trials := []TrialSummary{
		{Workload: 1000, Goodput: 200, Hardware: []HWResource{cpu("cjdbc1", "cjdbc", 0.30, 0)}},
		idleTrial(5400, 500),
		{Workload: 7000, Goodput: 600, Hardware: []HWResource{cpu("cjdbc1", "cjdbc", 0.99, 0.33)}},
	}
	steps := Steps(trials, JudgeConfig{})
	if len(steps) != 3 {
		t.Fatalf("got %d steps", len(steps))
	}
	wantKinds := []string{StepNone, StepSoft, StepHardware}
	for i, k := range wantKinds {
		if steps[i].Kind != k {
			t.Errorf("step %d kind = %s, want %s", i, steps[i].Kind, k)
		}
	}
	if got := steps[0].Attribution(); got != "-" {
		t.Errorf("unsaturated step attribution = %q", got)
	}
	if got := steps[1].Attribution(); !strings.Contains(got, "soft: tomcat1/threads (sat 92%)") {
		t.Errorf("soft step attribution = %q", got)
	}
	if got := steps[2].Attribution(); got != "hardware: cjdbc1 CPU 99% (GC 33%)" {
		t.Errorf("hardware step attribution = %q", got)
	}
}

func TestDetectSoftBottleneck(t *testing.T) {
	// Goodput grows 5000→5400 then caps; the capped step shows idle
	// hardware with saturated Tomcat pools — the Fig. 2 signature.
	trials := []TrialSummary{
		idleTrial(5000, 400),
		idleTrial(5400, 500),
		idleTrial(5800, 502),
	}
	sig := DetectSoftBottleneck(trials, JudgeConfig{})
	if sig == nil {
		t.Fatal("Fig. 2 signature not detected")
	}
	if sig.Figure != "Fig. 2" || sig.Kind != "soft-bottleneck" {
		t.Fatalf("signature = %+v", sig)
	}
	if !strings.Contains(sig.Detail, "tomcat1/threads") {
		t.Errorf("detail should name the most saturated pool: %s", sig.Detail)
	}

	// Still-growing goodput must not trigger.
	growing := []TrialSummary{idleTrial(5000, 400), idleTrial(5400, 500), idleTrial(5800, 600)}
	if s := DetectSoftBottleneck(growing, JudgeConfig{}); s != nil {
		t.Fatalf("growing goodput flagged: %v", s)
	}

	// A capped step with busy hardware is a hardware cap, not Fig. 2.
	hot := []TrialSummary{idleTrial(5000, 400), idleTrial(5400, 500)}
	capped := idleTrial(5800, 501)
	capped.Hardware[3].Util = 0.97
	hot = append(hot, capped)
	if s := DetectSoftBottleneck(hot, JudgeConfig{}); s != nil {
		t.Fatalf("hardware-saturated cap flagged as soft: %v", s)
	}
}

func TestDetectGCOverallocation(t *testing.T) {
	over := TrialSummary{
		Workload: 7800, Goodput: 300, Throughput: 900,
		Hardware: []HWResource{
			cpu("tomcat1", "tomcat", 0.70, 0.05),
			cpu("cjdbc1", "cjdbc", 0.99, 0.33),
		},
	}
	sig := DetectGCOverallocation([]TrialSummary{over}, JudgeConfig{})
	if sig == nil {
		t.Fatal("Fig. 5 signature not detected")
	}
	if sig.Figure != "Fig. 5" || !strings.Contains(sig.Detail, "cjdbc1") || !strings.Contains(sig.Detail, "33%") {
		t.Fatalf("signature = %+v", sig)
	}

	// Saturated CPU with healthy GC is a plain hardware bottleneck.
	healthy := over
	healthy.Hardware = []HWResource{cpu("cjdbc1", "cjdbc", 0.99, 0.05)}
	if s := DetectGCOverallocation([]TrialSummary{healthy}, JudgeConfig{}); s != nil {
		t.Fatalf("low-GC saturation flagged: %v", s)
	}
}

func TestDetectBufferingStarvation(t *testing.T) {
	early := TrialSummary{
		Workload: 6000,
		Hardware: []HWResource{cpu("apache1", "apache", 0.50, 0), cpu("cjdbc1", "cjdbc", 0.88, 0.05)},
		Soft:     []SoftResource{pl("apache1/workers", "apache", 400, 0.60, 0)},
	}
	late := TrialSummary{
		Workload: 7400,
		Hardware: []HWResource{cpu("apache1", "apache", 0.55, 0), cpu("cjdbc1", "cjdbc", 0.62, 0.04)},
		Soft:     []SoftResource{pl("apache1/workers", "apache", 400, 0.999, 0.95)},
	}
	sig := DetectBufferingStarvation([]TrialSummary{early, late}, JudgeConfig{})
	if sig == nil {
		t.Fatal("Fig. 8 signature not detected")
	}
	if sig.Figure != "Fig. 8" || !strings.Contains(sig.Detail, "cjdbc1 CPU") ||
		!strings.Contains(sig.Detail, "apache1/workers") {
		t.Fatalf("signature = %+v", sig)
	}

	// Without a saturated upstream pool the drop is not starvation.
	relaxed := late
	relaxed.Soft = []SoftResource{pl("apache1/workers", "apache", 400, 0.60, 0)}
	if s := DetectBufferingStarvation([]TrialSummary{early, relaxed}, JudgeConfig{}); s != nil {
		t.Fatalf("unsaturated pool flagged: %v", s)
	}

	// A small dip below utilDrop must not trigger.
	shallow := late
	shallow.Hardware = []HWResource{cpu("apache1", "apache", 0.55, 0), cpu("cjdbc1", "cjdbc", 0.83, 0.04)}
	if s := DetectBufferingStarvation([]TrialSummary{early, shallow}, JudgeConfig{}); s != nil {
		t.Fatalf("shallow dip flagged: %v", s)
	}
}

func TestDetectSignaturesCollects(t *testing.T) {
	trials := []TrialSummary{idleTrial(5000, 400), idleTrial(5400, 500), idleTrial(5800, 502)}
	sigs := DetectSignatures(trials, JudgeConfig{})
	if len(sigs) != 1 || sigs[0].Kind != "soft-bottleneck" {
		t.Fatalf("signatures = %v", sigs)
	}
	if got := sigs[0].String(); !strings.HasPrefix(got, "Fig. 2 soft-bottleneck: ") {
		t.Fatalf("String() = %q", got)
	}
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestClassifyWindows(t *testing.T) {
	// Saturation alternating between two servers: neither is persistent,
	// but some server is saturated in every window.
	alt, alt2 := make([]float64, 30), make([]float64, 30)
	for i := range alt {
		alt[i], alt2[i] = 0.97, 0.5
		if i%2 == 1 {
			alt[i], alt2[i] = 0.5, 0.97
		}
	}
	cases := []struct {
		name    string
		series  map[string][]float64
		kind    string
		windows int
		servers []string // saturated servers, in reported order
		anySat  float64
	}{
		{"none", map[string][]float64{"a": repeat(0.4, 30), "b": repeat(0.6, 30)}, PatternNone, 30, nil, 0},
		{"single", map[string][]float64{"tomcat1": repeat(0.97, 30), "cjdbc1": repeat(0.60, 30)}, PatternSingle, 30, []string{"tomcat1"}, 1},
		{"concurrent", map[string][]float64{"tomcat1": repeat(0.96, 30), "cjdbc1": repeat(0.95, 30)}, PatternConcurrent, 30, []string{"cjdbc1", "tomcat1"}, 1},
		{"oscillatory", map[string][]float64{"a": alt, "b": alt2}, PatternOscillatory, 30, []string{"a", "b"}, 1},
		{"empty", nil, PatternNone, 0, nil, 0},
		// The window threshold is inclusive at 0.9.
		{"below-threshold", map[string][]float64{"x": repeat(0.8999, 20)}, PatternNone, 20, nil, 0},
		{"at-threshold", map[string][]float64{"x": repeat(0.9, 20)}, PatternSingle, 20, []string{"x"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := ClassifyWindows(tc.series)
			var names []string
			for _, s := range p.Servers {
				names = append(names, s.Name)
			}
			if p.Kind != tc.kind || p.Windows != tc.windows || p.AnySatFraction != tc.anySat ||
				strings.Join(names, ",") != strings.Join(tc.servers, ",") {
				t.Errorf("got %s %d windows, servers %v, any-sat %v; want %s %d, %v, %v",
					p.Kind, p.Windows, names, p.AnySatFraction, tc.kind, tc.windows, tc.servers, tc.anySat)
			}
			if !strings.HasPrefix(p.String(), "bottleneck pattern: "+tc.kind+" (") {
				t.Errorf("rendering %q does not name %s", p.String(), tc.kind)
			}
		})
	}
	// Per-server figures of the oscillating pair: each saturated in half
	// the windows, mean utilization (0.97+0.5)/2.
	p := ClassifyWindows(map[string][]float64{"a": alt, "b": alt2})
	for _, s := range p.Servers {
		if s.SatFraction != 0.5 || math.Abs(s.MeanUtil-0.735) > 1e-12 {
			t.Errorf("%s: sat %v, mean util %v; want 0.5, 0.735", s.Name, s.SatFraction, s.MeanUtil)
		}
	}
}
