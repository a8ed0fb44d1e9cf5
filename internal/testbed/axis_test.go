package testbed

import "testing"

func TestSoftAllocGetWith(t *testing.T) {
	s := SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}
	want := map[Axis]SoftAlloc{
		WebThreads: {100, 15, 6},
		AppThreads: {400, 99, 6},
		AppConns:   {400, 15, 7},
	}
	names := map[Axis]string{WebThreads: "web-threads", AppThreads: "app-threads", AppConns: "app-conns"}
	for ax := range NumAxes {
		got := s.With(ax, want[ax].Get(ax))
		if got != want[ax] {
			t.Errorf("With(%v) = %v, want %v", ax, got, want[ax])
		}
		if ax.String() != names[ax] {
			t.Errorf("axis %d is named %q, want %q", int(ax), ax.String(), names[ax])
		}
	}
	if s != (SoftAlloc{400, 15, 6}) {
		t.Errorf("With changed its receiver: %v", s)
	}
}

// Every pool the tiers build maps to the axis whose size it holds, before
// and after a live resize, and the axes' units add up to the allocation's.
func TestAxisMatchesTierPoolNames(t *testing.T) {
	hw := Hardware{Web: 2, App: 3, Mid: 1, DB: 2}
	for _, ns := range []string{"", "vic"} {
		tb, err := Build(Options{Hardware: hw, Soft: SoftAlloc{40, 7, 5}, Seed: 1, Namespace: ns})
		if err != nil {
			t.Fatal(err)
		}
		for _, soft := range []SoftAlloc{tb.Opts.Soft, {30, 9, 4}} {
			if soft != tb.Opts.Soft { // the first pass reads the build
				if err := tb.ApplySoft(soft); err != nil {
					t.Fatal(err)
				}
			}
			pools := tb.FaultTargets().Pools
			if want := hw.Web + 2*hw.App; len(pools) != want {
				t.Fatalf("%d pools, want %d", len(pools), want)
			}
			for name, pl := range pools {
				ax, ok := AxisOf(name)
				if !ok {
					t.Errorf("pool %s maps to no axis", name)
				} else if pl.Capacity() != soft.Get(ax) {
					t.Errorf("pool %s (%v) holds %d, allocation %v gives the axis %d", name, ax, pl.Capacity(), soft, soft.Get(ax))
				}
			}
			units := 0
			for ax := range NumAxes {
				units += ax.Servers(hw) * soft.Get(ax)
			}
			if units != soft.Units(hw) || units != tb.SoftUnits() {
				t.Errorf("%v: axes sum to %d units, Units %d, SoftUnits %d", soft, units, soft.Units(hw), tb.SoftUnits())
			}
		}
		tb.Close()
	}
	for name, want := range map[string]bool{
		"vic/tomcat1/conns": true, "apache2/workers": true, "tomcat3/threads": true,
		"tomcat1/db-conns": false, "tomcat1/conns/x": false, "tomcat1": false, "": false,
	} {
		if _, ok := AxisOf(name); ok != want {
			t.Errorf("AxisOf(%q) matched %v, want %v", name, ok, want)
		}
	}
	if ax, _ := AxisOf("vic/tomcat1/conns"); ax != AppConns {
		t.Errorf("vic/tomcat1/conns maps to %v", ax)
	}
}
