// Bottleneck analysis: the paper's critical-resource detection (§III,
// Algorithm 1's monitoring premise) over trial summaries. Judge classifies
// one trial; Steps attributes every workload step of a ramped run; the
// Detect* functions recognize the figure signatures — Fig. 2 software
// bottleneck, Fig. 5 GC over-allocation, Fig. 6–8 buffering starvation;
// ClassifyWindows reads per-window CPU series for the multi-bottleneck
// patterns Algorithm 1 cannot handle. This file is the one place that
// decides what "saturated" means.

package obs

import (
	"fmt"
	"sort"
	"strings"

	"github.com/softres/ntier/internal/resource"
)

// HWResource is one hardware resource observation of a trial: a server's
// CPU (utilization includes GC overhead, the paper's SysStat view) or a
// database disk.
type HWResource struct {
	Server   string  `json:"server"`   // "cjdbc1"
	Tier     string  `json:"tier"`     // "apache", "tomcat", "cjdbc", "mysql"
	Resource string  `json:"resource"` // "CPU" or "disk"
	Util     float64 `json:"util"`     // mean utilization over the window
	GCShare  float64 `json:"gcShare"`  // fraction of the window in GC pauses
}

// String renders "cjdbc1 CPU 99% (GC 33%)".
func (h HWResource) String() string {
	s := fmt.Sprintf("%s %s %.0f%%", h.Server, h.Resource, h.Util*100)
	if h.GCShare > 0.005 {
		s += fmt.Sprintf(" (GC %.0f%%)", h.GCShare*100)
	}
	return s
}

// SoftResource is one soft-resource (pool) observation of a trial.
type SoftResource struct {
	Name      string  `json:"name"` // "tomcat1/conns"
	Tier      string  `json:"tier"`
	Capacity  int     `json:"capacity"`
	Util      float64 `json:"util"`      // mean in-use fraction
	Saturated float64 `json:"saturated"` // fraction of time full with waiters
	MaxQueue  int     `json:"maxQueue"`
}

// TrialSummary is the per-trial aggregate the analyzer consumes — built
// with AddServer from a Result or from a control window's integrals, or
// decoded from a TrialObs file.
type TrialSummary struct {
	Workload   int            `json:"workload"`
	Throughput float64        `json:"throughput"` // req/s over the window
	Goodput    float64        `json:"goodput"`    // req/s within the SLA
	SLASeconds float64        `json:"slaSeconds"` // the goodput threshold
	Hardware   []HWResource   `json:"hardware"`   // tier order
	Soft       []SoftResource `json:"soft"`       // tier order
}

// AddServer appends one server's readings over a window: its CPU
// (utilization including GC, clamped at 1, and the GC share), its disk
// when the disk was busy, and its pools in order. It is the one rule that
// turns monitor readings into the analyzer's entries: the experiment
// package reads a Result's servers through it, and the elastic controller
// its control window's integrals.
func (s *TrialSummary) AddServer(server, tier string, cpu, gcShare, disk float64, pools []resource.PoolStats) {
	s.Hardware = append(s.Hardware, HWResource{
		Server: server, Tier: tier, Resource: "CPU", Util: min(cpu, 1), GCShare: gcShare,
	})
	if disk > 0 {
		s.Hardware = append(s.Hardware, HWResource{Server: server, Tier: tier, Resource: "disk", Util: disk})
	}
	for _, pl := range pools {
		s.Soft = append(s.Soft, SoftResource{
			Name: pl.Name, Tier: tier, Capacity: pl.Capacity,
			Util: pl.Utilization, Saturated: pl.Saturated, MaxQueue: pl.MaxQueue,
		})
	}
}

// JudgeConfig holds the two settable detection thresholds (`ntier report`
// sets them from flags). Zero values take the defaults.
type JudgeConfig struct {
	// HWSaturation is the utilization at which a hardware resource counts
	// as saturated (default DefaultHWSaturation).
	HWSaturation float64
	// SoftSaturation is the saturated-time fraction at which a pool counts
	// as a software bottleneck (default DefaultSoftSaturation).
	SoftSaturation float64
}

// Detection thresholds. The first two are JudgeConfig's defaults; the
// rest are fixed.
const (
	// DefaultHWSaturation: the paper treats >95% CPU as the critical
	// hardware resource (§III-A).
	DefaultHWSaturation = 0.95
	// DefaultSoftSaturation: a pool full with waiters queued for half the
	// window.
	DefaultSoftSaturation = 0.5

	// hwIdle is the utilization every hardware resource must stay under
	// for the Fig. 2 "all hardware idle" signature.
	hwIdle = 0.85
	// gcAlarm is the GC share marking over-allocation (Fig. 5(c) reports
	// 33–90% at the over-allocated settings).
	gcAlarm = 0.15
	// capSlack is the relative goodput growth under which a step counts as
	// capped: less than 2% gain for a workload increase.
	capSlack = 0.02
	// utilDrop is the absolute utilization decrease marking the Fig. 8
	// starvation signature.
	utilDrop = 0.10
)

func (c *JudgeConfig) applyDefaults() {
	if c.HWSaturation == 0 {
		c.HWSaturation = DefaultHWSaturation
	}
	if c.SoftSaturation == 0 {
		c.SoftSaturation = DefaultSoftSaturation
	}
}

// Verdict classifies one trial.
type Verdict struct {
	// MostUtilized is the highest-utilization hardware resource, saturated
	// or not — the "most utilized resource" column of the step report.
	MostUtilized HWResource
	// SaturatedHW lists hardware at or above HWSaturation, most utilized
	// first. The head is Algorithm 1's critical resource candidate.
	SaturatedHW []HWResource
	// SaturatedSoft lists pools at or above SoftSaturation, tier order.
	SaturatedSoft []SoftResource
}

// Blamed returns the pool a software bottleneck is blamed on: the most
// saturated pool, ties going to the downstream-most in tier order. In a
// fully backed-up cascade the upstream pools pin full waiting on the real
// constraint, so the downstream one is the root cause — the pool the
// paper's Algorithm 1 would grow. It is the zero value when no pool
// saturated.
func (v Verdict) Blamed() SoftResource {
	var p SoftResource
	for i, q := range v.SaturatedSoft {
		if i == 0 || q.Saturated >= p.Saturated {
			p = q
		}
	}
	return p
}

// OverCollected returns the most utilized saturated hardware resource
// whose garbage-collection share is past the over-allocation alarm, if
// any: the JVM whose pools pin too large a live set (Fig. 5).
func (v Verdict) OverCollected() (HWResource, bool) {
	for _, h := range v.SaturatedHW {
		if h.GCShare >= gcAlarm {
			return h, true
		}
	}
	return HWResource{}, false
}

// HardwareLimited reports whether a hardware resource saturated.
func (v Verdict) HardwareLimited() bool { return len(v.SaturatedHW) > 0 }

// SoftLimited reports whether a pool saturated before any hardware did —
// the software-bottleneck state Algorithm 1 reacts to by doubling pools.
func (v Verdict) SoftLimited() bool {
	return !v.HardwareLimited() && len(v.SaturatedSoft) > 0
}

// Judge classifies one trial against the thresholds: which hardware is
// most loaded, which hardware saturated, which pools are software
// bottlenecks. This is the verdict the tuner's ramp consumes.
func Judge(s TrialSummary, cfg JudgeConfig) Verdict {
	cfg.applyDefaults()
	var v Verdict
	for _, h := range s.Hardware {
		if h.Util > v.MostUtilized.Util {
			v.MostUtilized = h
		}
		if h.Util >= cfg.HWSaturation {
			v.SaturatedHW = append(v.SaturatedHW, h)
		}
	}
	sort.SliceStable(v.SaturatedHW, func(i, j int) bool {
		return v.SaturatedHW[i].Util > v.SaturatedHW[j].Util
	})
	for _, p := range s.Soft {
		if p.Saturated >= cfg.SoftSaturation {
			v.SaturatedSoft = append(v.SaturatedSoft, p)
		}
	}
	return v
}

// Step kinds reported per workload step.
const (
	StepNone     = "none"     // nothing saturated
	StepHardware = "hardware" // a hardware resource saturated
	StepSoft     = "soft"     // a pool saturated with all hardware idle
)

// StepVerdict is the per-workload-step attribution of a ramped run.
type StepVerdict struct {
	Workload   int
	Goodput    float64
	Throughput float64
	Top        HWResource     // most-utilized hardware resource
	Kind       string         // StepNone, StepHardware, StepSoft
	Soft       []SoftResource // saturated pools
}

// Attribution renders the step's one-line verdict.
func (s StepVerdict) Attribution() string {
	switch s.Kind {
	case StepHardware:
		return "hardware: " + s.Top.String()
	case StepSoft:
		names := make([]string, len(s.Soft))
		for i, p := range s.Soft {
			names[i] = fmt.Sprintf("%s (sat %.0f%%)", p.Name, p.Saturated*100)
		}
		return "soft: " + strings.Join(names, ", ")
	default:
		return "-"
	}
}

// Steps attributes every workload step of a ramped run: the most-utilized
// hardware resource, and whether the step is hardware-limited or shows the
// Fig. 2 software-bottleneck state (saturated pool, all hardware idle).
func Steps(trials []TrialSummary, cfg JudgeConfig) []StepVerdict {
	out := make([]StepVerdict, 0, len(trials))
	for _, t := range trials {
		v := Judge(t, cfg)
		sv := StepVerdict{
			Workload:   t.Workload,
			Goodput:    t.Goodput,
			Throughput: t.Throughput,
			Top:        v.MostUtilized,
			Kind:       StepNone,
			Soft:       v.SaturatedSoft,
		}
		switch {
		case v.HardwareLimited():
			sv.Kind = StepHardware
			sv.Top = v.SaturatedHW[0]
		case len(v.SaturatedSoft) > 0 && v.MostUtilized.Util < hwIdle:
			sv.Kind = StepSoft
		}
		out = append(out, sv)
	}
	return out
}

// Windowed saturation patterns. The paper's Algorithm 1 assumes one
// hardware bottleneck and defers the case where "the saturation of
// hardware resources may oscillate among multiple servers located in
// different tiers" (citing Malkowski et al., IISWC'09) to future work.
// ClassifyWindows diagnoses that case from per-window utilization, so the
// tuner can at least identify the case it cannot solve and name the
// servers taking part.
const (
	PatternNone        = "none"        // no server saturates in a meaningful share of windows
	PatternSingle      = "single"      // one server saturated in most windows
	PatternConcurrent  = "concurrent"  // several servers each saturated in most windows
	PatternOscillatory = "oscillatory" // none persistently saturated, yet some server is in most windows
)

// Windowed pattern thresholds.
const (
	windowSaturation = 0.9 // a window at or above this utilization is saturated
	persistentShare  = 0.8 // a server saturated in this share of windows is persistent
	oscillatoryShare = 0.6 // with none persistent, some server saturated this often oscillates
)

// ServerSaturation summarizes one server's windowed saturation.
type ServerSaturation struct {
	Name        string
	MeanUtil    float64
	SatFraction float64 // fraction of windows at or above windowSaturation
}

// Pattern is the windowed saturation pattern of one trial.
type Pattern struct {
	Kind    string // PatternNone, PatternSingle, PatternConcurrent, PatternOscillatory
	Windows int
	// Servers is sorted by descending saturation fraction; only servers
	// saturated in at least one window are listed.
	Servers []ServerSaturation
	// AnySatFraction is the fraction of windows in which at least one
	// server was saturated.
	AnySatFraction float64
}

// ClassifyWindows classifies per-window utilization series, one per server
// keyed by name (the Recorder's <node>/cpu series). Series should have
// equal lengths; a shorter one counts as idle in its missing windows.
func ClassifyWindows(series map[string][]float64) Pattern {
	windows := 0
	for _, s := range series {
		windows = max(windows, len(s))
	}
	p := Pattern{Kind: PatternNone, Windows: windows}
	if windows == 0 {
		return p
	}
	anySat := make([]bool, windows)
	for name, s := range series {
		sat, sum := 0, 0.0
		for i, u := range s {
			sum += u
			if u >= windowSaturation {
				sat++
				anySat[i] = true
			}
		}
		if sat > 0 {
			p.Servers = append(p.Servers, ServerSaturation{
				Name:        name,
				MeanUtil:    sum / float64(len(s)),
				SatFraction: float64(sat) / float64(windows),
			})
		}
	}
	sort.Slice(p.Servers, func(i, j int) bool {
		if p.Servers[i].SatFraction != p.Servers[j].SatFraction {
			return p.Servers[i].SatFraction > p.Servers[j].SatFraction
		}
		return p.Servers[i].Name < p.Servers[j].Name
	})
	anyCount := 0
	for _, b := range anySat {
		if b {
			anyCount++
		}
	}
	p.AnySatFraction = float64(anyCount) / float64(windows)

	persistent := 0
	for _, s := range p.Servers {
		if s.SatFraction >= persistentShare {
			persistent++
		}
	}
	switch {
	case persistent == 1:
		p.Kind = PatternSingle
	case persistent > 1:
		p.Kind = PatternConcurrent
	case p.AnySatFraction >= oscillatoryShare:
		p.Kind = PatternOscillatory
	}
	return p
}

// String renders the pattern and its saturated servers.
func (p Pattern) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bottleneck pattern: %s (%d windows, some-server-saturated %.0f%%)\n",
		p.Kind, p.Windows, p.AnySatFraction*100)
	for _, s := range p.Servers {
		fmt.Fprintf(&b, "  %-10s mean util %5.1f%%  saturated %5.1f%% of windows\n",
			s.Name, s.MeanUtil*100, s.SatFraction*100)
	}
	return b.String()
}

// Signature is one detected figure pattern.
type Signature struct {
	Kind   string // "soft-bottleneck", "gc-overallocation", "buffering-starvation"
	Figure string // the paper figure the pattern reproduces
	Detail string // human-readable evidence
}

func (s Signature) String() string { return s.Figure + " " + s.Kind + ": " + s.Detail }

// DetectSignatures runs every figure detector over a ramped run (trials
// sorted by workload) and returns the patterns found.
func DetectSignatures(trials []TrialSummary, cfg JudgeConfig) []Signature {
	var sigs []Signature
	if s := DetectSoftBottleneck(trials, cfg); s != nil {
		sigs = append(sigs, *s)
	}
	if s := DetectGCOverallocation(trials, cfg); s != nil {
		sigs = append(sigs, *s)
	}
	if s := DetectBufferingStarvation(trials, cfg); s != nil {
		sigs = append(sigs, *s)
	}
	return sigs
}

// DetectSoftBottleneck recognizes the Fig. 2 under-allocation signature:
// goodput stops growing between consecutive workload steps while every
// hardware resource stays idle and some pool is saturated. That state —
// capped throughput with no busy hardware — is the paper's definition of a
// software bottleneck (§III-A).
func DetectSoftBottleneck(trials []TrialSummary, cfg JudgeConfig) *Signature {
	for i := 1; i < len(trials); i++ {
		prev, cur := trials[i-1], trials[i]
		if cur.Workload <= prev.Workload || prev.Goodput <= 0 {
			continue
		}
		if cur.Goodput >= prev.Goodput*(1+capSlack) {
			continue // still growing
		}
		v := Judge(cur, cfg)
		if v.MostUtilized.Util >= hwIdle || len(v.SaturatedSoft) == 0 {
			continue
		}
		p := v.Blamed()
		return &Signature{
			Kind:   "soft-bottleneck",
			Figure: "Fig. 2",
			Detail: fmt.Sprintf(
				"goodput capped at %.0f req/s from workload %d to %d while all hardware stayed below %.0f%% (max %s); pool %s saturated %.0f%% of the time",
				cur.Goodput, prev.Workload, cur.Workload, hwIdle*100,
				v.MostUtilized, p.Name, p.Saturated*100),
		}
	}
	return nil
}

// DetectGCOverallocation recognizes the Fig. 5 over-allocation signature:
// the saturated (or most-loaded) hardware resource is a JVM server's CPU
// with a garbage-collection share past the alarm — the over-allocated
// pools' resident threads inflating the collector until it consumes the
// critical resource (§III-B).
func DetectGCOverallocation(trials []TrialSummary, cfg JudgeConfig) *Signature {
	cfg.applyDefaults()
	for i := len(trials) - 1; i >= 0; i-- {
		v := Judge(trials[i], cfg)
		cand := v.MostUtilized
		if len(v.SaturatedHW) > 0 {
			cand = v.SaturatedHW[0]
		}
		if cand.Util < cfg.HWSaturation || cand.GCShare < gcAlarm {
			continue
		}
		return &Signature{
			Kind:   "gc-overallocation",
			Figure: "Fig. 5",
			Detail: fmt.Sprintf(
				"critical resource %s at workload %d spends %.0f%% of the window in garbage collection — over-allocated pools inflating the %s JVM live set",
				cand, trials[i].Workload, cand.GCShare*100, cand.Server),
		}
	}
	return nil
}

// DetectBufferingStarvation recognizes the Fig. 6–8 signature: a
// downstream tier's CPU utilization *falls* as workload rises, because an
// upstream pool saturates with workers parked buffering (Apache's
// lingering close) instead of driving work downstream (§III-C).
func DetectBufferingStarvation(trials []TrialSummary, cfg JudgeConfig) *Signature {
	if len(trials) < 2 {
		return nil
	}
	last := trials[len(trials)-1]
	lastUtil := make(map[string]HWResource)
	for _, h := range last.Hardware {
		lastUtil[h.Server+"/"+h.Resource] = h
	}
	vLast := Judge(last, cfg)
	if len(vLast.SaturatedSoft) == 0 {
		return nil // no starved-upstream evidence
	}
	var best *Signature
	bestDrop := utilDrop
	for _, t := range trials[:len(trials)-1] {
		if t.Workload >= last.Workload {
			continue
		}
		for _, h := range t.Hardware {
			l, ok := lastUtil[h.Server+"/"+h.Resource]
			if !ok {
				continue
			}
			if drop := h.Util - l.Util; drop >= bestDrop {
				bestDrop = drop
				pool := vLast.SaturatedSoft[0]
				sig := Signature{
					Kind:   "buffering-starvation",
					Figure: "Fig. 8",
					Detail: fmt.Sprintf(
						"%s %s utilization fell from %.0f%% at workload %d to %.0f%% at workload %d while pool %s stayed saturated — upstream workers buffering instead of driving work downstream",
						h.Server, h.Resource, h.Util*100, t.Workload,
						l.Util*100, last.Workload, pool.Name),
				}
				best = &sig
			}
		}
	}
	return best
}
