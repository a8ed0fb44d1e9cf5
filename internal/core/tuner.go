// Package core implements the paper's primary contribution: the three-step
// soft-resource allocation algorithm (paper §IV, Algorithm 1).
//
//  1. FindCriticalResource ramps the workload until a hardware resource
//     saturates. If a *soft* resource saturates first (the pool is full
//     with waiters while hardware idles — a software bottleneck), every
//     soft allocation is doubled and the ramp restarts.
//  2. InferMinConcurrentJobs re-ramps at a fine step, applies intervention
//     analysis to the SLO satisfaction to find the minimum saturating
//     workload WLmin, and uses Little's law on the critical server's
//     request log (L = X·R) to obtain minJobs — the smallest concurrency
//     that saturates the critical hardware resource.
//  3. CalculateMinAllocation sizes every other tier from the Forced Flow
//     law: front tiers get their measured Little's-law job count (with a
//     buffer factor for the web tier, §III-C), back tiers get minJobs.
package core

import (
	"fmt"
	"math"
	"time"

	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/queuing"
	"github.com/softres/ntier/internal/stats"
	"github.com/softres/ntier/internal/testbed"
)

// The algorithm's own constants: sla is the response-time bound whose
// satisfaction ratio drives the intervention analysis, webBufferFactor
// oversizes the web tier's thread pool relative to its Little's-law jobs
// (the §III-C request buffer), and maxDoublings and maxWorkload bound the
// soft-allocation doubling loop and the workload ramp.
const (
	sla             = 2 * time.Second
	webBufferFactor = 2
	maxDoublings    = 6
	maxWorkload     = 20000
)

// Config tunes the allocation algorithm.
type Config struct {
	// Base describes the hardware configuration, initial soft allocation
	// (S0), and trial protocol. Users is ignored. Base.Parallelism also
	// sizes the speculative ramp batches: the algorithm's workload ramps
	// run that many trials at once and read them in order, producing the
	// same report as a serial ramp.
	Base experiment.RunConfig

	// Step is the coarse workload increment of FindCriticalResource
	// (default 1000 users); SmallStep the fine increment of
	// InferMinConcurrentJobs (default 400).
	Step, SmallStep int

	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) applyDefaults() {
	if c.Step <= 0 {
		c.Step = 1000
	}
	if c.SmallStep <= 0 {
		c.SmallStep = 400
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Critical identifies the hardware resource that saturates first.
type Critical struct {
	Tier        string // tier of the critical server ("tomcat", "cjdbc", ...)
	Server      string // representative server name
	Resource    string // always "CPU" in this model
	Workload    int    // workload at which saturation was detected
	Utilization float64
}

// TierRow is one row of the Table-I style report.
type TierRow struct {
	Tier        string
	Servers     int
	RTT         time.Duration // mean per-request residence at WLmin
	TP          float64       // per-server throughput at WLmin
	Jobs        float64       // per-server Little's-law jobs at WLmin
	Recommended int           // per-server pool size
}

// Report is the algorithm's full output (the data of the paper's Table I).
type Report struct {
	Hardware     testbed.Hardware
	InitialSoft  testbed.SoftAlloc
	ReservedSoft testbed.SoftAlloc // S_reserve: allocation in force when the critical resource was exposed
	Critical     Critical
	SaturationWL int     // WLmin from the intervention analysis
	MinJobs      float64 // minimum concurrent jobs saturating the critical server
	ReqRatio     float64 // SQL queries per servlet request (forced-flow visit ratio)
	Rows         []TierRow
	Recommended  testbed.SoftAlloc
	Doublings    int // soft-saturation doublings performed in step 1
}

// Tune runs the full three-procedure algorithm. When cfg.Base.State is
// set, every ramp trial is journaled under a fingerprint covering the base
// configuration and the algorithm knobs, so a crashed or canceled tuning
// run resumed with the same flags replays its completed trials.
func Tune(cfg Config) (*Report, error) {
	cfg.applyDefaults()
	rep := &Report{
		Hardware:    cfg.Base.Testbed.Hardware,
		InitialSoft: cfg.Base.Testbed.Soft,
	}
	if err := cfg.findCriticalResource(rep); err != nil {
		return nil, err
	}
	if err := cfg.inferMinConcurrentJobs(rep); err != nil {
		return nil, err
	}
	if err := cfg.calculateMinAllocation(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// batchSize is how many ramp trials run speculatively at once.
func (c *Config) batchSize() int {
	if p := c.Base.Parallelism; p > 0 {
		return p
	}
	return experiment.DefaultParallelism()
}

// runBatch runs one trial per workload in parallel, results in workload
// order. The ramp loops consume the batch strictly in order and discard
// everything past their stopping point, so speculation never changes what
// the algorithm observes — only how fast it observes it. Every batch
// journals into one "tune" campaign fingerprinted by the algorithm knobs,
// so a resumed tuning run replays its completed trials. A per-trial
// failure is a hard error here: the stopping rules read every ramp point.
func (c *Config) runBatch(soft testbed.SoftAlloc, workloads []int) ([]*experiment.Result, error) {
	cfgs := make([]experiment.RunConfig, len(workloads))
	for i, wl := range workloads {
		cfgs[i] = c.Base
		cfgs[i].Testbed.Soft, cfgs[i].Users = soft, wl
	}
	knobs := []string{fmt.Sprint(c.Step), fmt.Sprint(c.SmallStep),
		fmt.Sprint(obs.DefaultHWSaturation), fmt.Sprint(obs.DefaultSoftSaturation),
		fmt.Sprint(sla), fmt.Sprint(webBufferFactor),
		fmt.Sprint(maxDoublings), fmt.Sprint(maxWorkload)}
	return experiment.Outs(experiment.RunTrials(c.Base, "tune", knobs, cfgs))
}

// rampWorkloads returns start, start+step, ... while <= max, capped at n
// points. The start is always included — like the serial ramps, the first
// trial runs even when it already exceeds max.
func rampWorkloads(start, step, max, n int) []int {
	out := []int{start}
	for w := start + step; w <= max && len(out) < n; w += step {
		out = append(out, w)
	}
	return out
}

// judge classifies one ramp trial through the obs bottleneck analyzer —
// the same detection rules `ntier report` applies — replacing the
// tuner's former ad-hoc saturation scan.
func (c *Config) judge(res *experiment.Result) obs.Verdict {
	return obs.Judge(experiment.Summarize(res, sla), obs.JudgeConfig{})
}

// softNames lists the saturated pools' names for logging.
func softNames(soft []obs.SoftResource) []string {
	out := make([]string, len(soft))
	for i, p := range soft {
		out[i] = p.Name
	}
	return out
}

// findCriticalResource implements procedure 1. The ramp runs speculative
// batches of trials in parallel (see runBatch) but inspects them strictly
// in workload order, so the reported critical resource is the one the
// serial ramp would have found.
func (c *Config) findCriticalResource(rep *Report) error {
	soft := c.Base.Testbed.Soft
ramp:
	for {
		users := c.Step
		tpMax := -1.0
		for {
			batch := rampWorkloads(users, c.Step, maxWorkload, c.batchSize())
			results, err := c.runBatch(soft, batch)
			if err != nil {
				return err
			}
			for bi, res := range results {
				wl := batch[bi]
				tp := res.Throughput()
				c.logf("find-critical: soft=%s workload=%d tp=%.1f", soft, wl, tp)

				v := c.judge(res)
				if v.HardwareLimited() {
					top := v.SaturatedHW[0]
					rep.ReservedSoft = soft
					rep.Critical = Critical{
						Tier:        top.Tier,
						Server:      top.Server,
						Resource:    top.Resource,
						Workload:    wl,
						Utilization: top.Util,
					}
					c.logf("find-critical: hardware saturation at %s %s (%.0f%%)",
						top.Server, top.Resource, top.Util*100)
					return nil
				}
				if softSat := softNames(v.SaturatedSoft); len(softSat) > 0 {
					if rep.Doublings >= maxDoublings {
						return fmt.Errorf("core: soft resources still saturate after %d doublings (%v)", rep.Doublings, softSat)
					}
					rep.Doublings++
					soft = soft.Scale(2)
					c.logf("find-critical: soft bottleneck %v -> doubling to %s", softSat, soft)
					continue ramp
				}
				if tp <= tpMax*1.002 {
					// The paper's single-bottleneck assumption failed;
					// diagnose the windowed saturation pattern before
					// giving up.
					rc := c.Base
					rc.Testbed.Soft = soft
					rc.Users = wl
					diag, derr := Diagnose(rc)
					if derr != nil {
						return fmt.Errorf("core: throughput stopped growing at workload %d with no saturated resource (diagnosis failed: %v)", wl, derr)
					}
					return fmt.Errorf("core: throughput stopped growing at workload %d with no fully saturated resource (paper §IV-B multi-bottleneck case); %s", wl, diag)
				}
				if tp > tpMax {
					tpMax = tp
				}
			}
			users = batch[len(batch)-1] + c.Step
			if users > maxWorkload {
				return fmt.Errorf("core: no saturation below %d users", maxWorkload)
			}
		}
	}
}

// Diagnose runs one trial with per-window utilization monitoring and
// classifies its bottleneck pattern — the analysis the paper defers to for
// the multi-bottleneck cases Algorithm 1 cannot handle.
func Diagnose(rc experiment.RunConfig) (obs.Pattern, error) {
	rc.WindowUtil = true
	res, err := experiment.Run(rc)
	if err != nil {
		return obs.Pattern{}, err
	}
	return obs.ClassifyWindows(res.UtilSeries), nil
}

// criticalStats returns the critical tier's per-server stats of a result.
func criticalStats(res *experiment.Result, tier string) []experiment.ServerStats {
	switch tier {
	case "apache":
		return res.Apache
	case "tomcat":
		return res.Tomcat
	case "cjdbc":
		return res.CJDBC
	case "mysql":
		return res.MySQL
	}
	return nil
}

// inferMinConcurrentJobs implements procedure 2.
func (c *Config) inferMinConcurrentJobs(rep *Report) error {
	var (
		workloads []int
		slo       []float64
		results   []*experiment.Result
	)
	// The fine ramp runs in speculative parallel batches, consumed in
	// workload order; points past the stopping rule are discarded.
	users := c.SmallStep
	tpMax := -1.0
	declines := 0
ramp:
	for {
		batch := rampWorkloads(users, c.SmallStep, maxWorkload, c.batchSize())
		batchRes, err := c.runBatch(rep.ReservedSoft, batch)
		if err != nil {
			return err
		}
		for bi, res := range batchRes {
			wl := batch[bi]
			tp := res.Throughput()
			sat := res.SLA.SatisfactionRatio(sla)
			workloads = append(workloads, wl)
			slo = append(slo, sat)
			results = append(results, res)
			c.logf("infer-jobs: workload=%d tp=%.1f slo=%.3f", wl, tp, sat)

			// The paper's loop stops when throughput stops growing; we
			// keep two extra points so the change-point has
			// post-intervention data.
			if tp <= tpMax {
				declines++
				if declines >= 2 {
					break ramp
				}
			} else {
				tpMax = tp
			}
		}
		users = batch[len(batch)-1] + c.SmallStep
		if users > maxWorkload {
			break
		}
	}

	// The minimum saturating workload. The authoritative signal is the
	// first trial whose critical hardware resource crosses the saturation
	// threshold — measuring Little's law there, at the onset, avoids the
	// queue-inflated job counts of deep saturation. The intervention
	// analysis on SLO satisfaction (the paper's §IV-B signal) and the
	// throughput maximum serve as fallbacks.
	k := -1
	for i, r := range results {
		crit := criticalStats(r, rep.Critical.Tier)
		util := 0.0
		for _, s := range crit {
			if rep.Critical.Resource == "disk" {
				util += s.DiskUtil
			} else {
				util += s.CPUUtil
			}
		}
		if len(crit) > 0 && util/float64(len(crit)) >= obs.DefaultHWSaturation {
			k = i
			break
		}
	}
	if k < 0 {
		k = stats.DetectIntervention(slo, stats.Decrease)
	}
	if k < 0 {
		// Fall back to the response-time series.
		var rts []float64
		for _, r := range results {
			rts = append(rts, r.MeanRT().Seconds())
		}
		k = stats.DetectIntervention(rts, stats.Increase)
	}
	if k < 0 {
		// Last resort: the point of maximum throughput.
		for i, r := range results {
			if r.Throughput() >= tpMax {
				k = i
				break
			}
		}
	}
	if k < 0 || k >= len(results) {
		return fmt.Errorf("core: could not locate the saturating workload")
	}

	at := results[k]
	crit := criticalStats(at, rep.Critical.Tier)
	if len(crit) == 0 {
		return fmt.Errorf("core: no stats for critical tier %q", rep.Critical.Tier)
	}
	// Per-server Little's law on the logged throughput and residence.
	jobs := 0.0
	for _, s := range crit {
		jobs += queuing.Little(s.TP, s.RTT)
	}
	jobs /= float64(len(crit))

	rep.SaturationWL = workloads[k]
	rep.MinJobs = jobs
	rep.ReqRatio = reqRatio(at)
	rep.Rows = tierRows(at)
	c.logf("infer-jobs: WLmin=%d minJobs=%.1f reqRatio=%.2f", rep.SaturationWL, rep.MinJobs, rep.ReqRatio)
	return nil
}

// reqRatio measures the forced-flow visit ratio of the database path.
func reqRatio(res *experiment.Result) float64 {
	front, back := 0.0, 0.0
	for _, s := range res.Apache {
		front += s.TP
	}
	for _, s := range res.CJDBC {
		back += s.TP
	}
	return queuing.VisitRatio(back, front)
}

// tierRows summarizes every tier at the saturating workload.
func tierRows(res *experiment.Result) []TierRow {
	row := func(tier string, ss []experiment.ServerStats) TierRow {
		r := TierRow{Tier: tier, Servers: len(ss)}
		if len(ss) == 0 {
			return r
		}
		var rttSum time.Duration
		for _, s := range ss {
			rttSum += s.RTT
			r.TP += s.TP
			r.Jobs += queuing.Little(s.TP, s.RTT)
		}
		r.RTT = rttSum / time.Duration(len(ss))
		r.TP /= float64(len(ss))
		r.Jobs /= float64(len(ss))
		return r
	}
	return []TierRow{
		row("apache", res.Apache),
		row("tomcat", res.Tomcat),
		row("cjdbc", res.CJDBC),
		row("mysql", res.MySQL),
	}
}

// calculateMinAllocation implements procedure 3.
func (c *Config) calculateMinAllocation(rep *Report) error {
	minJobs := int(math.Ceil(rep.MinJobs))
	if minJobs < 1 {
		minJobs = 1
	}
	find := func(tier string) *TierRow {
		for i := range rep.Rows {
			if rep.Rows[i].Tier == tier {
				return &rep.Rows[i]
			}
		}
		return nil
	}
	apache, tomcat, cjdbc := find("apache"), find("tomcat"), find("cjdbc")

	ceil := func(x float64) int {
		n := int(math.Ceil(x))
		if n < 1 {
			return 1
		}
		return n
	}

	var rec testbed.SoftAlloc
	switch rep.Critical.Tier {
	case "tomcat":
		// Critical server pools get exactly minJobs; the web tier in
		// front buffers (measured jobs x buffer factor); the connection
		// pool behind must not congest the critical tier: >= minJobs.
		rec.AppThreads = minJobs
		rec.AppConns = minJobs
		rec.WebThreads = ceil(apache.Jobs * webBufferFactor)
		tomcat.Recommended = rec.AppThreads
		apache.Recommended = rec.WebThreads
		cjdbc.Recommended = rec.AppConns // one C-JDBC thread per connection
	case "cjdbc":
		// C-JDBC has no explicit pool: its thread count is controlled by
		// the upstream connection pools (one thread per connection), so
		// the per-Tomcat connection pool is minJobs divided across the
		// application servers. Front tiers get their Little's-law jobs
		// (Forced Flow: L_tomcat = L_cjdbc * RTTratio / Reqratio).
		apps := rep.Hardware.App
		rec.AppConns = ceil(rep.MinJobs / float64(apps))
		rec.AppThreads = ceil(tomcat.Jobs)
		rec.WebThreads = ceil(apache.Jobs * webBufferFactor)
		cjdbc.Recommended = minJobs
		tomcat.Recommended = rec.AppThreads
		apache.Recommended = rec.WebThreads
	case "apache":
		rec.WebThreads = minJobs
		rec.AppThreads = ceil(tomcat.Jobs)
		rec.AppConns = ceil(tomcat.Jobs)
		apache.Recommended = minJobs
		tomcat.Recommended = rec.AppThreads
	case "mysql":
		// Behind every pool: everything upstream sized to its jobs.
		rec.WebThreads = ceil(apache.Jobs * webBufferFactor)
		rec.AppThreads = ceil(tomcat.Jobs)
		rec.AppConns = ceil(tomcat.Jobs)
	default:
		return fmt.Errorf("core: unknown critical tier %q", rep.Critical.Tier)
	}

	// Never recommend below 1 or above the reserved (known-working)
	// allocation's doubled sizes.
	if rec.WebThreads < 1 {
		rec.WebThreads = 1
	}
	if rec.AppThreads < 1 {
		rec.AppThreads = 1
	}
	if rec.AppConns < 1 {
		rec.AppConns = 1
	}
	rep.Recommended = rec
	c.logf("allocate: recommended %s", rec)
	return nil
}
