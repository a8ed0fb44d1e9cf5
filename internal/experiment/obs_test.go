package experiment

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/fleet"
	"github.com/softres/ntier/internal/obs"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

func obsBase(t *testing.T, hw, soft string, ramp, measure time.Duration) RunConfig {
	t.Helper()
	h, err := testbed.ParseHardware(hw)
	if err != nil {
		t.Fatal(err)
	}
	s, err := testbed.ParseSoftAlloc(soft)
	if err != nil {
		t.Fatal(err)
	}
	return RunConfig{
		Testbed: testbed.Options{Hardware: h, Soft: s, Seed: 1},
		RampUp:  ramp,
		Measure: measure,
	}
}

// sweepFingerprint reduces a sweep to a byte string covering every
// externally visible metric at full float precision: the plotting CSV plus
// the complete per-server monitoring records.
func sweepFingerprint(t *testing.T, c *Curve) string {
	t.Helper()
	var b strings.Builder
	if err := c.WriteCSV(&b, []time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results {
		if r == nil {
			t.Fatal("missing result")
		}
		data, err := json.Marshal(r.Servers())
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestObsNonPerturbing is the acceptance check for the recorder's pure-read
// guarantee: a sweep run with -obs must produce byte-identical metrics —
// CSV and full-precision per-server stats — to the same sweep without it.
func TestObsNonPerturbing(t *testing.T) {
	users := []int{1500, 3000}

	plain := obsBase(t, "1/2/1/2", "400-6-6", 10*time.Second, 20*time.Second)
	c1, err := WorkloadSweep(plain, users)
	if err != nil {
		t.Fatal(err)
	}

	observed := obsBase(t, "1/2/1/2", "400-6-6", 10*time.Second, 20*time.Second)
	observed.ObsDir = t.TempDir()
	c2, err := WorkloadSweep(observed, users)
	if err != nil {
		t.Fatal(err)
	}

	f1, f2 := sweepFingerprint(t, c1), sweepFingerprint(t, c2)
	if f1 != f2 {
		t.Fatalf("observability perturbed the sweep:\n--- without -obs ---\n%s\n--- with -obs ---\n%s", f1, f2)
	}

	// And the snapshots themselves landed on disk, complete.
	trials, err := obs.ReadDir(observed.ObsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != len(users) {
		t.Fatalf("recorded %d snapshots, want %d", len(trials), len(users))
	}
	for i, tr := range trials {
		if tr.Workload != users[i] || tr.Hardware != "1/2/1/2" || tr.Soft != "400-6-6" {
			t.Fatalf("snapshot identity = %s n%d", tr.Label(), tr.Workload)
		}
		if tr.Summary.Throughput <= 0 || len(tr.Summary.Hardware) == 0 || len(tr.Summary.Soft) == 0 {
			t.Fatalf("snapshot summary empty: %+v", tr.Summary)
		}
		if tr.Summary.SLASeconds != 2 {
			t.Fatalf("summary SLA = %gs with Obs.SLA unset, want the paper's 2s", tr.Summary.SLASeconds)
		}
		for _, want := range []string{"tomcat1/cpu", "cjdbc1/gc", "tomcat1/threads/occ",
			"tomcat1/conns/util", "apache1/finwait", "cjdbc1/busy", "mysql1/disk"} {
			s := tr.FindSeries(want)
			if s == nil || len(s.Values) == 0 {
				t.Fatalf("snapshot missing series %q", want)
			}
			if s.Kind == obs.KindRate {
				for _, v := range s.Values {
					if v < 0 || v > 1 {
						t.Fatalf("rate %s out of [0,1]: %v", want, s.Values)
					}
				}
			}
		}
		// One value per one-second window of the measurement, the last
		// window included.
		if s := tr.FindSeries("tomcat1/cpu"); len(s.Values) != 20 {
			t.Fatalf("series length = %d, want 20", len(s.Values))
		}
	}

	// The in-memory result carries the same snapshot.
	if c2.Results[0].Obs == nil || c2.Results[0].Obs.Workload != users[0] {
		t.Fatal("Result.Obs not populated")
	}
	if c1.Results[0].Obs != nil {
		t.Fatal("Result.Obs populated without ObsDir")
	}
}

// TestUnderAllocationAttribution seeds the paper's §IV-A under-allocation
// shape (1/2/1/2, Tomcat pools pinned to 6) and asserts the analyzer
// attributes a *soft* bottleneck with every hardware resource below
// saturation — the Fig. 2 signature, found automatically.
func TestUnderAllocationAttribution(t *testing.T) {
	base := obsBase(t, "1/2/1/2", "400-6-6", 20*time.Second, 30*time.Second)
	base.ObsDir = t.TempDir()
	users := []int{3500, 4000, 4500}
	if _, err := WorkloadSweep(base, users); err != nil {
		t.Fatal(err)
	}
	trials, err := obs.ReadDir(base.ObsDir)
	if err != nil {
		t.Fatal(err)
	}
	groups := obs.GroupTrials(trials)
	if len(groups) != 1 {
		t.Fatalf("groups = %d", len(groups))
	}
	sums := groups[0].Summaries()
	cfg := obs.JudgeConfig{}

	steps := obs.Steps(sums, cfg)
	soft := 0
	for _, s := range steps {
		t.Logf("wl %d: goodput %.1f tput %.1f top %s -> %s", s.Workload, s.Goodput, s.Throughput, s.Top, s.Attribution())
		if s.Kind == obs.StepHardware {
			t.Errorf("workload %d attributed to hardware (%s) in the under-allocated run", s.Workload, s.Top)
		}
		if s.Kind == obs.StepSoft {
			soft++
			if s.Top.Util >= 0.95 {
				t.Errorf("workload %d: hardware %s saturated in a soft-bottleneck step", s.Workload, s.Top)
			}
		}
	}
	if soft == 0 {
		t.Fatalf("no step attributed to a soft resource:\n%s", obs.RenderReport(groups, cfg))
	}

	sig := obs.DetectSoftBottleneck(sums, cfg)
	if sig == nil {
		t.Fatalf("Fig. 2 soft-bottleneck signature not detected:\n%s", obs.RenderReport(groups, cfg))
	}
	if !strings.Contains(sig.Detail, "tomcat") || !strings.Contains(sig.Detail, "/threads") {
		t.Errorf("signature should blame a Tomcat thread pool: %s", sig.Detail)
	}
	t.Logf("signature: %s", sig)
}

// TestOverAllocationAttribution seeds the paper's §IV-B over-allocation
// shape (1/4/1/4, 200-thread and 200-connection Tomcat pools behind a wide
// Apache buffer so the cascade reaches the database) and asserts the
// analyzer attributes the C-JDBC CPU as the critical resource with its
// garbage-collection share reported — the Fig. 5 signature.
func TestOverAllocationAttribution(t *testing.T) {
	base := obsBase(t, "1/4/1/4", "800-200-200", 20*time.Second, 30*time.Second)
	base.ObsDir = t.TempDir()
	users := []int{5000, 5500}
	if _, err := WorkloadSweep(base, users); err != nil {
		t.Fatal(err)
	}
	trials, err := obs.ReadDir(base.ObsDir)
	if err != nil {
		t.Fatal(err)
	}
	groups := obs.GroupTrials(trials)
	sums := groups[0].Summaries()
	cfg := obs.JudgeConfig{}

	steps := obs.Steps(sums, cfg)
	for _, s := range steps {
		t.Logf("wl %d: goodput %.1f tput %.1f top %s -> %s", s.Workload, s.Goodput, s.Throughput, s.Top, s.Attribution())
	}
	last := steps[len(steps)-1]
	if last.Kind != obs.StepHardware {
		t.Fatalf("final step not hardware-limited:\n%s", obs.RenderReport(groups, cfg))
	}
	if last.Top.Server != "cjdbc1" || last.Top.Resource != "CPU" {
		t.Fatalf("critical resource = %s, want cjdbc1 CPU", last.Top)
	}
	if last.Top.GCShare < 0.15 {
		t.Fatalf("C-JDBC GC share = %.2f, want >= 0.15 (over-allocation inflating the collector)", last.Top.GCShare)
	}

	sig := obs.DetectGCOverallocation(sums, cfg)
	if sig == nil {
		t.Fatalf("Fig. 5 gc-overallocation signature not detected:\n%s", obs.RenderReport(groups, cfg))
	}
	if !strings.Contains(sig.Detail, "cjdbc1") {
		t.Errorf("signature should blame cjdbc1: %s", sig.Detail)
	}
	t.Logf("signature: %s", sig)
}

// TestObsOneSnapshotPerTrial: every trial of a campaign writes its own obs
// snapshot, one per testbed, so no trial silently overwrites another's.
// Open-loop trials are told apart by their peak rate, elastic cells by
// policy and trace, and fleet tenants by the cell they ran in.
func TestObsOneSnapshotPerTrial(t *testing.T) {
	base := obsBase(t, "1/1/1/1", "50-6-3", 2*time.Second, 3*time.Second)
	base.Parallelism = 1
	fleetCfg := func(dir string) FleetSweepConfig {
		cfg := smallFleet()
		cfg.Run.RampUp, cfg.Run.Measure, cfg.Run.ObsDir = 2*time.Second, 3*time.Second, dir
		cfg.Placements = []fleet.Placement{fleet.PlacementPacked}
		return cfg
	}
	cases := []struct {
		name string
		run  func(dir string) error
		want int
	}{
		{"overload-rates", func(dir string) error {
			cfg := base
			cfg.ObsDir = dir
			_, err := OverloadSweep(cfg, []float64{60, 120, 180})
			return err
		}, 3},
		{"elastic-policies-traces", func(dir string) error {
			cfg := ElasticSweepConfig{Run: base, Window: time.Second,
				Policies: []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyTopJob},
				Traces: []ElasticTrace{
					{Name: "diurnal", Spec: trace.Diurnal(20, 60, time.Minute)},
					{Name: "mmpp", Spec: trace.MMPP(trace.MMPPState{Rate: 20, Mean: 4 * time.Second},
						trace.MMPPState{Rate: 60, Mean: 4 * time.Second})},
					{Name: "flash", Spec: trace.FlashCrowd(20, 180, 30*time.Second, 4*time.Second)},
				}}
			cfg.Run.ObsDir = dir
			_, err := ElasticSweep(cfg)
			return err
		}, 6},
		{"fleet-counts", func(dir string) error {
			cfg := fleetCfg(dir)
			cfg.TenantCounts = []int{1, 2}
			_, err := FleetSweep(cfg)
			return err
		}, 3},
		{"fleet-interference", func(dir string) error {
			_, err := FleetInterference(fleetCfg(dir), fleet.PlacementPacked, 3)
			return err
		}, 6},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.run(dir); err != nil {
				t.Fatal(err)
			}
			names, err := filepath.Glob(filepath.Join(dir, "obs-*.json"))
			if err != nil {
				t.Fatal(err)
			}
			if len(names) != tc.want {
				t.Errorf("%d snapshots written, want one per trial per testbed (%d): %v", len(names), tc.want, names)
			}
		})
	}
}
