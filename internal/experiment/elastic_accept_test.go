package experiment_test

// The elastic acceptance criterion: on the 1/2/1/2 topology over a
// day-long diurnal trace, an elastic policy must achieve strictly higher
// goodput per soft-resource-unit than the best static allocation the
// budgeted search finds — the static optimum is sized for one point of the
// trace, so it pays for peak capacity all day, while the controller
// releases it overnight.

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/adaptive"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/search"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

func TestElasticBeatsBestStaticPerUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial acceptance campaign")
	}
	hw := testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2}
	const low, high = 30.0, 90.0
	day := 4 * time.Minute

	// Find the best static allocation under a small trial budget, on the
	// workload ladder spanning the trace's trough and plateau.
	base := experiment.RunConfig{
		Testbed: testbed.Options{
			Hardware: hw,
			Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 30, AppConns: 20},
			Seed:     23,
		},
		RampUp:  10 * time.Second,
		Measure: 20 * time.Second,
	}
	ladder := []int{int(rubbos.OpenEquivUsers(low)), int(rubbos.OpenEquivUsers(high))}
	out, err := search.Run(search.Options{
		Base:       base,
		WebThreads: []int{60},
		AppThreads: []int{2, 4, 8, 16},
		AppConns:   []int{2, 4, 8},
		Workloads:  ladder,
		SLA:        time.Second,
		Budget:     10,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("best static: %s (%d units, goodput %.1f req/s)",
		out.Best, out.Best.Units(hw), out.BestGoodput)

	// Rerun that optimum as the STATIC baseline against TOP_JOB over the
	// diurnal day, under the same total-units budget.
	cfg := experiment.ElasticSweepConfig{
		Run: experiment.RunConfig{
			Testbed: testbed.Options{Hardware: hw, Soft: out.Best, Seed: 23},
			RampUp:  10 * time.Second,
			Measure: day,
		},
		Controller: adaptive.ElasticConfig{
			Interval: 15 * time.Second,
			Cooldown: 30 * time.Second,
		},
		Policies: []adaptive.Policy{adaptive.PolicyStatic, adaptive.PolicyTopJob},
		Traces:   []experiment.ElasticTrace{{Name: "diurnal", Spec: trace.Diurnal(low, high, day)}},
	}
	grid, err := experiment.ElasticSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// One trace, so the policy-major grid holds one cell per policy.
	static, elastic := grid.Results[0], grid.Results[1]
	if static == nil || elastic == nil {
		t.Fatal("missing grid cells")
	}
	t.Logf("static:  %s", static.Describe())
	t.Logf("elastic: %s", elastic.Describe())
	if static.Goodput <= 0 || elastic.Goodput <= 0 {
		t.Fatal("degenerate trial: zero goodput")
	}
	if elastic.GoodputPerUnit <= static.GoodputPerUnit {
		t.Errorf("TOP_JOB goodput/unit %.4f did not beat the best static %.4f\ndecisions:\n%s",
			elastic.GoodputPerUnit, static.GoodputPerUnit, elastic.DecisionLog)
	}
	// The efficiency win must not come from collapsing service quality:
	// the elastic trace must retain the bulk of the static goodput.
	if elastic.Goodput < 0.9*static.Goodput {
		t.Errorf("elastic goodput %.1f sacrificed too much of the static %.1f",
			elastic.Goodput, static.Goodput)
	}
}
