// Observability wiring: building obs trial summaries from results and
// recording per-trial snapshots when RunConfig.ObsDir is set.

package experiment

import (
	"time"

	"github.com/softres/ntier/internal/obs"
)

// Summarize reduces a trial result to the aggregate the obs bottleneck
// analyzer consumes: every hardware resource (per-server CPU including GC,
// database disks) and every soft resource (pool), in tier order, plus the
// throughput and SLA-goodput of the window.
func Summarize(res *Result, sla time.Duration) obs.TrialSummary {
	s := obs.TrialSummary{
		Workload:   res.Config.Users,
		Throughput: res.Throughput(),
		Goodput:    res.Goodput(sla),
		SLASeconds: sla.Seconds(),
	}
	for _, sv := range res.Servers() {
		s.AddServer(sv.Name, sv.Tier, sv.CPUUtil, sv.GC.GCFraction, sv.DiskUtil, sv.Pools)
	}
	return s
}
