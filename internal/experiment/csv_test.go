package experiment

import (
	"encoding/csv"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/sla"
)

func TestWriteCSV(t *testing.T) {
	cfg := baseConfig(0)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 15 * time.Second
	curve, err := WorkloadSweep(cfg, []int{300, 600})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := curve.WriteCSV(&b, sla.StandardThresholds); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("csv has %d rows, want header + 2", len(records))
	}
	if records[0][0] != "workload" || records[1][0] != "300" || records[2][0] != "600" {
		t.Errorf("rows: %v", records)
	}
	wantCols := 2 + len(sla.StandardThresholds) + 13
	if len(records[0]) != wantCols {
		t.Errorf("csv has %d columns, want %d", len(records[0]), wantCols)
	}
	errCol := 2 + len(sla.StandardThresholds)
	for off, name := range []string{"errors", "shed", "abandoned", "late"} {
		if records[0][errCol+off] != name {
			t.Errorf("column %d is %q, want %s", errCol+off, records[0][errCol+off], name)
		}
		if records[1][errCol+off] != "0" || records[2][errCol+off] != "0" {
			t.Errorf("fault-free sweep reported %s: %v %v", name, records[1][errCol+off], records[2][errCol+off])
		}
	}
	// The workload's buckets at the horizon sit next to the outcome counts.
	if records[0][errCol+4] != "issued" || records[0][errCol+5] != "in_flight" {
		t.Fatalf("columns after late are %q, %q, want issued, in_flight", records[0][errCol+4], records[0][errCol+5])
	}
	for i, r := range curve.Results {
		want := []string{strconv.FormatUint(r.Requests.Issued, 10), strconv.Itoa(r.Requests.InFlight)}
		if got := records[i+1][errCol+4 : errCol+6]; r.Requests.Issued == 0 || !slices.Equal(got, want) {
			t.Errorf("row %d: issued, in_flight = %v, want %v (nonzero issued)", i+1, got, want)
		}
	}
}

func TestWriteCSVSurfacesErrors(t *testing.T) {
	cfg := baseConfig(0)
	curve := &Curve{
		Label:   "demo",
		Users:   []int{100},
		Results: []*Result{{Config: cfg, SLA: sla.NewCollector(sla.StandardThresholds), Errors: 42}},
	}
	curve.Results[0].SLA.SetElapsed(10 * time.Second)
	var b strings.Builder
	if err := curve.WriteCSV(&b, sla.StandardThresholds); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	errCol := 2 + len(sla.StandardThresholds)
	if records[1][errCol] != "42" {
		t.Errorf("errors cell %q, want 42", records[1][errCol])
	}
}

func TestWindowUtilSeries(t *testing.T) {
	cfg := baseConfig(1200)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 20 * time.Second
	cfg.WindowUtil = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.UtilSeries) != 6 {
		t.Fatalf("util series for %d nodes, want 6", len(res.UtilSeries))
	}
	series, ok := res.UtilSeries["tomcat1"]
	if !ok {
		t.Fatal("no series for tomcat1")
	}
	if want := int(cfg.Measure / obs.SampleInterval); len(series) != want {
		t.Fatalf("series has %d windows, want %d", len(series), want)
	}
	sum := 0.0
	for _, u := range series {
		if u < 0 || u > 1 {
			t.Fatalf("window utilization %v out of range", u)
		}
		sum += u
	}
	mean := sum / float64(len(series))
	// The windows tile the measurement, so their mean is the aggregate
	// utilization up to rounding (the two read equal here).
	agg := res.Tomcat[0].CPUUtil
	if diff := mean - agg; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("windowed mean %v vs aggregate %v", mean, agg)
	}
}
