package chaos

import (
	"reflect"
	"testing"
	"time"

	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/testbed"
)

func testTargets(t *testing.T) TargetSet {
	t.Helper()
	ts, err := Discover(testbed.Options{
		Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
		Soft:     testbed.SoftAlloc{WebThreads: 50, AppThreads: 6, AppConns: 6},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestDiscoverTargets(t *testing.T) {
	ts := testTargets(t)
	wantNodes := []string{"apache1", "cjdbc1", "mysql1", "mysql2", "tomcat1", "tomcat2"}
	if !reflect.DeepEqual(ts.Nodes, wantNodes) {
		t.Errorf("nodes = %v, want %v", ts.Nodes, wantNodes)
	}
	if !reflect.DeepEqual(ts.CPUs, wantNodes) {
		t.Errorf("cpus = %v, want %v", ts.CPUs, wantNodes)
	}
	wantPools := []PoolTarget{
		{Name: "apache1/workers", Cap: 50},
		{Name: "tomcat1/conns", Cap: 6},
		{Name: "tomcat1/threads", Cap: 6},
		{Name: "tomcat2/conns", Cap: 6},
		{Name: "tomcat2/threads", Cap: 6},
	}
	if !reflect.DeepEqual(ts.Pools, wantPools) {
		t.Errorf("pools = %v, want %v", ts.Pools, wantPools)
	}
	if !reflect.DeepEqual(ts.Links, []string{"link"}) {
		t.Errorf("links = %v", ts.Links)
	}
}

func TestGenerateDeterministicAndBounded(t *testing.T) {
	g := GenConfig{
		Targets:    testTargets(t),
		Horizon:    30 * time.Second,
		MinEvents:  2,
		MaxEvents:  8,
		JitterFrac: 0.2,
	}
	a, b := g.Generate(7), g.Generate(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if reflect.DeepEqual(a, g.Generate(8)) {
		t.Fatal("different seeds produced identical plans")
	}

	caps := map[string]int{}
	for _, p := range g.Targets.Pools {
		caps[p.Name] = p.Cap
	}
	budget := time.Duration(float64(g.Horizon) / (1 + g.JitterFrac))
	for seed := uint64(0); seed < 50; seed++ {
		pl := g.Generate(seed)
		if err := pl.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if n := len(pl.Events); n < g.MinEvents || n > g.MaxEvents {
			t.Fatalf("seed %d: %d events outside [%d,%d]", seed, n, g.MinEvents, g.MaxEvents)
		}
		if pl.JitterFrac != g.JitterFrac {
			t.Fatalf("seed %d: jitter %g", seed, pl.JitterFrac)
		}
		for _, e := range pl.Events {
			if e.End == 0 {
				t.Fatalf("seed %d: never-reverting event %s", seed, e)
			}
			if e.End > budget {
				t.Fatalf("seed %d: event %s reverts past the jitter-safe budget %v", seed, e, budget)
			}
			switch e.Kind {
			case fault.KindBrownout:
				if e.Speed < 0.05 || e.Speed > 0.8 {
					t.Fatalf("seed %d: speed %g outside band", seed, e.Speed)
				}
			case fault.KindNetSpike:
				if e.Extra < time.Millisecond || e.Extra > 25*time.Millisecond {
					t.Fatalf("seed %d: extra %v outside band", seed, e.Extra)
				}
			case fault.KindConnLeak:
				if e.Units < 1 || e.Units > caps[e.Target] {
					t.Fatalf("seed %d: %d units leaked from %s (cap %d)", seed, e.Units, e.Target, caps[e.Target])
				}
			}
		}
	}
}

// All four kinds must appear over a modest seed range — the fuzzer covers
// the whole fault surface, not a lucky subset.
func TestGenerateCoversAllKinds(t *testing.T) {
	g := GenConfig{Targets: testTargets(t), Horizon: 30 * time.Second, MinEvents: 3, MaxEvents: 6}
	seen := map[fault.Kind]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		for _, e := range g.Generate(seed).Events {
			seen[e.Kind] = true
		}
	}
	for _, k := range []fault.Kind{fault.KindCrash, fault.KindBrownout, fault.KindNetSpike, fault.KindConnLeak} {
		if !seen[k] {
			t.Errorf("kind %s never generated", k)
		}
	}
}

func TestGenerateEmptyTargets(t *testing.T) {
	pl := GenConfig{Horizon: time.Second}.Generate(1)
	if len(pl.Events) != 0 {
		t.Fatalf("plan over an empty target set has %d events", len(pl.Events))
	}
}
