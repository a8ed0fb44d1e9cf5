// Run reports: the text table, per-step CSV, and signature lines rendered
// by `ntier report` from a directory of TrialObs snapshots.

package obs

import (
	"fmt"
	"io"
	"strings"
)

// RenderReport renders the full text report for a set of groups: one
// per-workload-step attribution table per configuration, followed by the
// figure signatures detected over the ramp.
func RenderReport(groups []Group, cfg JudgeConfig) string {
	var b strings.Builder
	for gi, g := range groups {
		if gi > 0 {
			b.WriteByte('\n')
		}
		renderGroup(&b, g, cfg)
	}
	return b.String()
}

func renderGroup(b *strings.Builder, g Group, cfg JudgeConfig) {
	sums := g.Summaries()
	steps := Steps(sums, cfg)
	sla := "SLA"
	if len(sums) > 0 && sums[0].SLASeconds > 0 {
		sla = fmt.Sprintf("%gs", sums[0].SLASeconds)
	}
	fmt.Fprintf(b, "=== %s ===\n", g.Label)
	fmt.Fprintf(b, "%8s  %12s  %10s  %-24s  %s\n",
		"workload", "goodput("+sla+")", "tput", "most utilized hardware", "bottleneck")
	for _, s := range steps {
		fmt.Fprintf(b, "%8d  %12.1f  %10.1f  %-24s  %s\n",
			s.Workload, s.Goodput, s.Throughput, s.Top.String(), s.Attribution())
	}
	sigs := DetectSignatures(sums, cfg)
	if len(sigs) == 0 {
		fmt.Fprintf(b, "signatures: none\n")
		return
	}
	fmt.Fprintf(b, "signatures:\n")
	for _, s := range sigs {
		fmt.Fprintf(b, "  %s\n", s)
	}
}

// WriteReportCSV writes the per-step attribution table as CSV: one row per
// (configuration, workload) step.
func WriteReportCSV(w io.Writer, groups []Group, cfg JudgeConfig) error {
	if _, err := fmt.Fprintln(w,
		"hardware,soft,workload,goodput,throughput,top_server,top_resource,top_util,top_gc_share,bottleneck,saturated_pools"); err != nil {
		return err
	}
	for _, g := range groups {
		steps := Steps(g.Summaries(), cfg)
		for i, s := range steps {
			t := g.Trials[i]
			pools := make([]string, len(s.Soft))
			for j, p := range s.Soft {
				pools[j] = p.Name
			}
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%.2f,%.2f,%s,%s,%.4f,%.4f,%s,%s\n",
				t.Hardware, t.Soft, s.Workload, s.Goodput, s.Throughput,
				s.Top.Server, s.Top.Resource, s.Top.Util, s.Top.GCShare,
				s.Kind, strings.Join(pools, ";")); err != nil {
				return err
			}
		}
	}
	return nil
}
