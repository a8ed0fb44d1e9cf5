// Scalability benchmarks for the simulator substrate itself (ROADMAP
// item 1: 10⁵–10⁶ concurrent clients per trial). Unlike the per-figure
// benchmarks in bench_test.go, which measure experiment shapes, these
// measure the event-loop hot path and the cost of a client population two
// orders of magnitude past the paper's Emulab testbed (§II-B). They are
// part of the BENCH_*.json trajectory: regenerate snapshots after any
// engine work (see README "Performance baseline").
package ntier

import (
	"runtime"
	"testing"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/experiment"
	"github.com/softres/ntier/internal/rubbos"
	"github.com/softres/ntier/internal/sla"
	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/trace"
)

// eventLoopEpisode is the number of callback firings one BenchmarkEventLoop
// iteration drives through the scheduler. A fixed-size episode keeps ns/op
// and allocs/op meaningful under -benchtime=1x, matching how the rest of
// the suite is snapshotted.
const eventLoopEpisode = 1 << 20

// BenchmarkEventLoop — the des scheduler under the simulator's real event
// mix: a resident set of self-re-arming callbacks (think timers, service
// completions) with every 32nd firing doing cancel/re-arm churn on a
// further-out event through the public handle API, the residual
// cancel-and-reschedule traffic components that hold Event handles produce.
// One op is eventLoopEpisode fired callbacks; ns/op and allocs/op are
// therefore per-episode.
func BenchmarkEventLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := des.NewEnv()
		noop := func() {}
		const fanout = 8192
		remaining := eventLoopEpisode
		ticks := make([]func(), fanout)
		spares := make([]des.Event, fanout)
		for s := 0; s < fanout; s++ {
			s := s
			gap := time.Duration(s%64+1) * time.Microsecond
			ticks[s] = func() {
				if remaining <= 0 {
					return
				}
				remaining--
				if remaining%32 == 0 {
					// Handle churn: cancel the armed spare and re-arm it
					// further out.
					spares[s].Cancel()
					spares[s] = env.After(500*time.Microsecond, noop)
				}
				env.After(gap, ticks[s])
			}
		}
		for s := 0; s < fanout; s++ {
			env.After(time.Duration(s%64+1)*time.Microsecond, ticks[s])
		}
		env.Run(time.Hour)
	}
}

// BenchmarkMillionClients — a full closed-loop trial at 10⁵ concurrent
// emulated users (one session process each) against the paper's 1/2/1/2
// testbed, two orders of magnitude past the figures' populations, plus an
// open-system stream whose Little's-law equivalent population is 10⁶
// (rate × 7 s think time, see rubbos.OpenEquivUsers). Both report the
// full conservation breakdown (issued = completed + failed + shed +
// in-flight) and their peak goroutines and bound runners; the open stream
// also reports the goodput it served within its 2 s deadline after a 1 s
// ramp, and the arrivals its accept backlog dropped.
func BenchmarkMillionClients(b *testing.B) {
	b.Run("closed=100000", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tb, err := testbed.Build(testbed.Options{
				Hardware: testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:     testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			ccfg := rubbos.DefaultClientConfig(100000)
			ccfg.RampUp = 5 * time.Second
			w, err := tb.StartWorkload(ccfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			runReporting(b, tb, w, 15*time.Second)
			b.ReportMetric(float64(ccfg.Users), "clients")
			tb.Close()
		}
	})
	b.Run("openEquiv=1000000", func(b *testing.B) {
		b.ReportAllocs()
		const (
			rate     = 1e6 / 7.0 // Little's law: 10⁶ users at 7 s think time
			deadline = 2 * time.Second
			ramp     = time.Second
			horizon  = 8 * time.Second
		)
		for i := 0; i < b.N; i++ {
			tb, err := testbed.Build(testbed.Options{
				Hardware:   testbed.Hardware{Web: 1, App: 2, Mid: 1, DB: 2},
				Soft:       testbed.SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6},
				Seed:       1,
				Resilience: experiment.OverloadProtection(),
			})
			if err != nil {
				b.Fatal(err)
			}
			window := sla.NewCollector([]time.Duration{deadline})
			w, err := tb.StartOpenWorkload(rubbos.OpenConfig{
				Arrivals: trace.Poisson(rate),
				Matrix:   rubbos.BrowseOnlyMix(),
				Seed:     1,
				Deadline: deadline,
			}, func(_ *rubbos.Interaction, issued, rt time.Duration, err error) {
				if issued >= ramp && err == nil {
					window.Observe(rt)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
			runReporting(b, tb, w, horizon)
			window.SetElapsed(horizon - ramp)
			var drops uint64
			for _, a := range tb.Apaches {
				drops += a.BacklogDrops()
			}
			b.ReportMetric(window.Goodput(deadline), "goodput/s")
			b.ReportMetric(float64(drops), "backlog-drops")
			b.ReportMetric(rubbos.OpenEquivUsers(rate), "equivUsers")
			tb.Close()
		}
	})
}

// runReporting runs tb to horizon in one-second legs, sampling the
// goroutine count between legs, and reports w's conservation breakdown,
// the peak goroutines, and the peak runners the engine bound at once.
func runReporting(b *testing.B, tb *testbed.Testbed, w *rubbos.Workload, horizon time.Duration) {
	peak := runtime.NumGoroutine()
	for until := time.Second; until <= horizon; until += time.Second {
		tb.Env.Run(until)
		peak = max(peak, runtime.NumGoroutine())
	}
	b.ReportMetric(float64(w.Issued()), "issued")
	b.ReportMetric(float64(w.Completed()), "completed")
	b.ReportMetric(float64(w.Failed()), "failed")
	b.ReportMetric(float64(w.Shed()), "shed")
	b.ReportMetric(float64(w.InFlight()), "inflight")
	b.ReportMetric(float64(peak), "goroutines-peak")
	b.ReportMetric(float64(tb.Env.Counters().PeakBound), "runners-peak")
}
