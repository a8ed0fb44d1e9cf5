package experiment

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteCSV writes one curve's full per-workload record as CSV for external
// plotting, one writeTrialsCSV row per workload.
func (c *Curve) WriteCSV(w io.Writer, thresholds []time.Duration) error {
	return writeTrialsCSV(w, "workload", func(i int) string { return strconv.Itoa(c.Users[i]) },
		c.Results, c.Errs, thresholds)
}

// writeTrialsCSV writes a sweep's per-trial record — the axis value,
// throughput, goodput per threshold, error/degraded responses,
// shed/abandoned/late counts, the requests issued and still in flight,
// mean/p95 response time, and per-tier CPU — as CSV, with axisName heading
// the first column. The errors column keeps badput visible in
// fault-scenario curves; shed and abandoned keep deliberate rejections and
// frustrated users visible next to it. Issued and in_flight are the
// workload's buckets at the horizon, counted from the start of the trial
// (Result.Requests), so a backlog growing past the window shows. A trial
// that failed (errs) still gets a row: empty metric cells and the failure
// in the status column, so a partially-failed sweep remains plottable.
func writeTrialsCSV(w io.Writer, axisName string, axis func(i int) string, results []*Result, errs []error, thresholds []time.Duration) error {
	cw := csv.NewWriter(w)
	header := []string{axisName, "throughput"}
	for _, th := range thresholds {
		header = append(header, fmt.Sprintf("goodput_%s", th))
	}
	header = append(header, "errors", "shed", "abandoned", "late", "issued", "in_flight", "mean_rt_s", "p95_rt_s",
		"apache_cpu", "tomcat_cpu", "cjdbc_cpu", "mysql_cpu", "status")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i, r := range results {
		row := []string{axis(i)}
		if r == nil {
			status := "missing"
			if i < len(errs) && errs[i] != nil {
				status = errs[i].Error()
			}
			for len(row) < len(header)-1 {
				row = append(row, "")
			}
			row = append(row, status)
			if err := cw.Write(row); err != nil {
				return err
			}
			continue
		}
		row = append(row, fmt.Sprintf("%.2f", r.Throughput()))
		for _, th := range thresholds {
			row = append(row, fmt.Sprintf("%.2f", r.Goodput(th)))
		}
		row = append(row,
			strconv.FormatUint(r.Errors, 10),
			strconv.FormatUint(r.Shed, 10),
			strconv.FormatUint(r.Abandoned, 10),
			strconv.FormatUint(r.Late, 10),
			strconv.FormatUint(r.Requests.Issued, 10),
			strconv.Itoa(r.Requests.InFlight),
			fmt.Sprintf("%.4f", r.SLA.ResponseTimes().Mean()),
			fmt.Sprintf("%.4f", r.SLA.ResponseTimes().Percentile(95)),
			fmt.Sprintf("%.4f", TierCPU(r.Apache)),
			fmt.Sprintf("%.4f", TierCPU(r.Tomcat)),
			fmt.Sprintf("%.4f", TierCPU(r.CJDBC)),
			fmt.Sprintf("%.4f", TierCPU(r.MySQL)),
			"ok",
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// A timelineColumn is one column of a windowed timeline CSV after second,
// completed and goodput: its header and its cell for one window.
type timelineColumn struct {
	name string
	cell func(p *WindowPoint) string
}

// The outcome columns of flash crowds and elastic days, one count each.
var (
	errorsColumn = timelineColumn{"errors", func(p *WindowPoint) string { return strconv.Itoa(p.Errors) }}
	shedColumn   = timelineColumn{"shed", func(p *WindowPoint) string { return strconv.Itoa(p.Shed) }}
	lateColumn   = timelineColumn{"late", func(p *WindowPoint) string { return strconv.Itoa(p.Late) }}
)

// gaugeColumn renders the window's gauge under name.
func gaugeColumn(name, format string) timelineColumn {
	return timelineColumn{name, func(p *WindowPoint) string { return fmt.Sprintf(format, p.Gauge) }}
}

// writeTimelineCSV writes a windowed timeline as CSV, one row per window:
// second, completed and goodput, then cols.
func writeTimelineCSV(w io.Writer, points []WindowPoint, cols ...timelineColumn) error {
	cw := csv.NewWriter(w)
	header := []string{"second", "completed", "goodput"}
	for _, c := range cols {
		header = append(header, c.name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range points {
		p := &points[i]
		row := []string{fmt.Sprintf("%.0f", p.Second), strconv.Itoa(p.Completed), fmt.Sprintf("%.2f", p.Goodput)}
		for _, c := range cols {
			row = append(row, c.cell(p))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTimelineCSV writes the fault scenario's per-window series as CSV:
// completions, goodput, error and shed responses together, and effective
// C-JDBC concurrency.
func (sr *ScenarioResult) WriteTimelineCSV(w io.Writer) error {
	return writeTimelineCSV(w, sr.Timeline,
		timelineColumn{"errors", func(p *WindowPoint) string { return strconv.Itoa(p.Errors + p.Shed) }},
		gaugeColumn("cjdbc_busy", "%.2f"))
}
