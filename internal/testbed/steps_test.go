package testbed

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/tier"
	"github.com/softres/ntier/internal/trace"
)

// resilienceTotals sums the resilience counters of every Apache and
// Tomcat.
func resilienceTotals(tb *Testbed) tier.ResilienceStats {
	var sum tier.ResilienceStats
	add := func(s *tier.ResilienceStats) {
		if s == nil {
			return
		}
		sum.Shed += s.Shed
		sum.AcquireTimeouts += s.AcquireTimeouts
		sum.CallTimeouts += s.CallTimeouts
		sum.Retries += s.Retries
		sum.Failures += s.Failures
		sum.BreakerOpens += s.BreakerOpens
	}
	for _, a := range tb.Apaches {
		add(a.Resilience())
	}
	for _, t := range tb.Tomcats {
		add(t.Resilience())
	}
	return sum
}

// Every kind of trial runs in steps alone, whatever paths its requests
// take: no process binds a coroutine. Each case checks that its trial
// took the paths it names, and pins its events, its request buckets and
// the evidence of those paths (pin: the first 12 bytes of their sha256,
// the same as when a request in service ran on a coroutine), so a path
// that moves a random draw, a wait or a span shows.
func TestEveryTrialKindBindsNoRunner(t *testing.T) {
	cases := []struct {
		name  string
		opts  Options
		start func(tb *Testbed) (*rubbos.Workload, error)
		plan  []fault.Event
		// took returns the evidence of the trial's paths, and what it
		// missed of them, or "".
		took func(tb *Testbed, w *rubbos.Workload) (evidence, missed string)
		pin  string
	}{
		{
			name: "closed 1/4/1/4",
			opts: Options{Hardware: Hardware{1, 4, 1, 4}, Soft: SoftAlloc{400, 15, 6}},
			start: func(tb *Testbed) (*rubbos.Workload, error) {
				cfg := rubbos.DefaultClientConfig(3000)
				cfg.RampUp = time.Second
				return tb.StartWorkload(cfg, nil)
			},
			took: func(tb *Testbed, w *rubbos.Workload) (string, string) {
				if w.Completed() == 0 {
					return "", "no request completed"
				}
				return fmt.Sprintf("tomcat1 cpu %x", tb.Tomcats[0].Node.CPU().BusyIntegral()), ""
			},
			pin: "ee7b9f6f498cc17ef5749f25",
		},
		{
			name: "protected open overload",
			opts: Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{400, 15, 6}, Resilience: &tier.ResilienceConfig{
				Admission: true, MaxQueue: 50, Backlog: 128,
			}},
			start: func(tb *Testbed) (*rubbos.Workload, error) {
				return tb.StartOpenWorkload(rubbos.OpenConfig{
					Arrivals: trace.Poisson(6000), Matrix: rubbos.BrowseOnlyMix(), Seed: 1, Deadline: 2 * time.Second,
				}, nil)
			},
			took: func(tb *Testbed, w *rubbos.Workload) (string, string) {
				evidence := fmt.Sprintf("%d backlog drops, %+v, apache cpu %x", tb.Apaches[0].BacklogDrops(),
					resilienceTotals(tb), tb.Apaches[0].Node.CPU().BusyIntegral())
				if w.Completed() == 0 || w.Shed() == 0 || tb.Apaches[0].BacklogDrops() == 0 {
					return evidence, "no completion, shed or backlog drop"
				}
				return evidence, ""
			},
			pin: "b38a9cb051fa7dd4f246cf7a",
		},
		{
			name: "write mix with disk commits",
			opts: Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{400, 15, 6}},
			start: func(tb *Testbed) (*rubbos.Workload, error) {
				cfg := rubbos.DefaultClientConfig(2000)
				cfg.RampUp = time.Second
				cfg.Matrix = rubbos.WriteHeavyMix()
				return tb.StartWorkload(cfg, nil)
			},
			took: func(tb *Testbed, w *rubbos.Workload) (string, string) {
				busy := tb.MySQLs[0].Node.Disk().BusyIntegral()
				if busy == 0 {
					return "", "no disk commit"
				}
				return fmt.Sprintf("disk %x", busy), ""
			},
			pin: "6a9ac403f66ff0086310d9f1",
		},
		{
			name: "over-allocated connections",
			opts: Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{400, 200, 200}},
			start: func(tb *Testbed) (*rubbos.Workload, error) {
				cfg := rubbos.DefaultClientConfig(4000)
				cfg.RampUp = time.Second
				return tb.StartWorkload(cfg, nil)
			},
			took: func(tb *Testbed, w *rubbos.Workload) (string, string) {
				mid, app := tb.CJDBCs[0].JVM.Stats(), tb.Tomcats[0].JVM.Stats()
				evidence := fmt.Sprintf("gc %d/%v, %d/%v", mid.GCCount, mid.TotalGC, app.GCCount, app.TotalGC)
				if mid.GCCount == 0 || app.GCCount == 0 {
					return evidence, "no collection at C-JDBC and Tomcat"
				}
				return evidence, ""
			},
			pin: "f9b9e5805a8471c1135d72e4",
		},
		{
			name: "fault plan under resilience",
			opts: Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{100, 15, 6}, Resilience: func() *tier.ResilienceConfig {
				cfg := tier.DefaultResilienceConfig()
				cfg.MaxQueue = 20
				return &cfg
			}()},
			start: func(tb *Testbed) (*rubbos.Workload, error) {
				cfg := rubbos.DefaultClientConfig(4000)
				cfg.RampUp = time.Second
				return tb.StartWorkload(cfg, nil)
			},
			plan: []fault.Event{
				fault.Crash("tomcat1", time.Second, 3*time.Second),
				fault.Brownout("cjdbc1", 2*time.Second, 6*time.Second, 0.01),
				fault.NetSpike("link", 6*time.Second, 7*time.Second, 20*time.Millisecond),
			},
			took: func(tb *Testbed, w *rubbos.Workload) (string, string) {
				s := resilienceTotals(tb)
				evidence := fmt.Sprintf("%+v", s)
				if s.Retries == 0 || s.BreakerOpens == 0 || s.CallTimeouts == 0 || s.AcquireTimeouts == 0 || s.Shed == 0 || w.Failed() == 0 {
					return evidence, "a resilience path"
				}
				return evidence, ""
			},
			pin: "767cac342df9b27d5deb09c6",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Seed = 1
			tb, err := Build(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			w, err := tc.start(tb)
			if err != nil {
				t.Fatal(err)
			}
			if tc.plan != nil {
				if err := fault.NewInjector(tb.Env, tb.FaultTargets(), 1).Schedule(0, fault.Plan{Events: tc.plan}); err != nil {
					t.Fatal(err)
				}
			}
			events := tb.Env.Run(8 * time.Second)
			evidence, missed := tc.took(tb, w)
			if missed != "" {
				t.Errorf("the trial missed %s: %s", missed, evidence)
			}
			outcome := fmt.Sprintf("events=%d issued=%d completed=%d failed=%d shed=%d %s",
				events, w.Issued(), w.Completed(), w.Failed(), w.Shed(), evidence)
			sum := sha256.Sum256([]byte(outcome))
			if pin := hex.EncodeToString(sum[:12]); pin != tc.pin {
				t.Errorf("pin %s, want %s: %s", pin, tc.pin, outcome)
			}
			if c := tb.Env.Counters(); c.Binds != 0 || c.Steps == 0 {
				t.Errorf("counters %+v, want steps alone", c)
			}
		})
	}
}
