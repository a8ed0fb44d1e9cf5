package testbed

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/rubbos"
)

func TestParseHardware(t *testing.T) {
	h, err := ParseHardware("1/2/1/2")
	if err != nil {
		t.Fatal(err)
	}
	if h != (Hardware{1, 2, 1, 2}) {
		t.Errorf("parsed %+v", h)
	}
	if h.String() != "1/2/1/2" {
		t.Errorf("String() = %q", h.String())
	}
	for _, bad := range []string{"", "1/2/1", "1/2/1/2/3", "a/2/1/2", "0/2/1/2", "-1/2/1/2"} {
		if _, err := ParseHardware(bad); err == nil {
			t.Errorf("ParseHardware(%q) should fail", bad)
		}
	}
}

func TestParseSoftAlloc(t *testing.T) {
	s, err := ParseSoftAlloc("400-15-6")
	if err != nil {
		t.Fatal(err)
	}
	if s != (SoftAlloc{400, 15, 6}) {
		t.Errorf("parsed %+v", s)
	}
	if s.String() != "400-15-6" {
		t.Errorf("String() = %q", s.String())
	}
	if s.Scale(2) != (SoftAlloc{800, 30, 12}) {
		t.Errorf("Scale(2) = %+v", s.Scale(2))
	}
	for _, bad := range []string{"", "400-15", "400-15-6-1", "x-15-6", "0-15-6"} {
		if _, err := ParseSoftAlloc(bad); err == nil {
			t.Errorf("ParseSoftAlloc(%q) should fail", bad)
		}
	}
}

func TestSoftAllocUnits(t *testing.T) {
	hw := Hardware{Web: 1, App: 2, Mid: 1, DB: 2}
	soft := SoftAlloc{WebThreads: 400, AppThreads: 15, AppConns: 6}
	if got := soft.Units(hw); got != 400+2*(15+6) {
		t.Errorf("Units = %d, want %d", got, 400+2*(15+6))
	}
}

func TestBuildWiresTopology(t *testing.T) {
	tb, err := Build(Options{
		Hardware: Hardware{1, 2, 1, 2},
		Soft:     SoftAlloc{400, 15, 6},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if len(tb.Apaches) != 1 || len(tb.Tomcats) != 2 || len(tb.CJDBCs) != 1 || len(tb.MySQLs) != 2 {
		t.Fatalf("topology %d/%d/%d/%d, want 1/2/1/2",
			len(tb.Apaches), len(tb.Tomcats), len(tb.CJDBCs), len(tb.MySQLs))
	}
	if got := tb.CJDBCs[0].UpstreamConns(); got != 12 {
		t.Errorf("C-JDBC resident threads %d, want 2 app servers x 6 conns = 12", got)
	}
	if tb.Tomcats[0].Threads.Capacity() != 15 || tb.Tomcats[0].Conns.Capacity() != 6 {
		t.Errorf("tomcat pools %d/%d, want 15/6",
			tb.Tomcats[0].Threads.Capacity(), tb.Tomcats[0].Conns.Capacity())
	}
	if tb.Apaches[0].Workers.Capacity() != 400 {
		t.Errorf("apache workers %d, want 400", tb.Apaches[0].Workers.Capacity())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(Options{Hardware: Hardware{0, 1, 1, 1}, Soft: SoftAlloc{1, 1, 1}}); err == nil {
		t.Error("zero web tier should fail")
	}
	if _, err := Build(Options{Hardware: Hardware{1, 1, 1, 1}, Soft: SoftAlloc{0, 1, 1}}); err == nil {
		t.Error("zero pool should fail")
	}
}

// runSmoke runs a small closed-loop workload and returns overall throughput
// and mean response time over the measurement window.
func runSmoke(t *testing.T, users int, opts Options) (tp float64, meanRT time.Duration) {
	t.Helper()
	tb, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ccfg := rubbos.DefaultClientConfig(users)
	ccfg.RampUp = 10 * time.Second
	ccfg.Seed = opts.Seed
	var count uint64
	var sumRT time.Duration
	measureStart := 20 * time.Second
	_, err = tb.StartWorkload(ccfg, func(it *rubbos.Interaction, issued, rt time.Duration, err error) {
		if issued >= measureStart {
			count++
			sumRT += rt
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 60 * time.Second
	tb.Env.Run(horizon)
	elapsed := (horizon - measureStart).Seconds()
	if count == 0 {
		t.Fatal("no requests completed")
	}
	return float64(count) / elapsed, sumRT / time.Duration(count)
}

func TestEndToEndLightLoad(t *testing.T) {
	opts := Options{
		Hardware: Hardware{1, 2, 1, 2},
		Soft:     SoftAlloc{400, 15, 6},
		Seed:     7,
	}
	tp, rt := runSmoke(t, 500, opts)
	// Closed loop: X ≈ N/(Z+R) ≈ 500/7s ≈ 71 req/s at light load.
	if tp < 55 || tp > 85 {
		t.Errorf("light-load throughput %.1f req/s, want ~71", tp)
	}
	if rt > 200*time.Millisecond {
		t.Errorf("light-load mean RT %v, want well under 200ms", rt)
	}
}

func TestEndToEndDeterministicReplay(t *testing.T) {
	opts := Options{
		Hardware: Hardware{1, 2, 1, 2},
		Soft:     SoftAlloc{400, 15, 6},
		Seed:     9,
	}
	tp1, rt1 := runSmoke(t, 300, opts)
	tp2, rt2 := runSmoke(t, 300, opts)
	if tp1 != tp2 || rt1 != rt2 {
		t.Errorf("replay diverged: (%.3f, %v) vs (%.3f, %v)", tp1, rt1, tp2, rt2)
	}
}

func TestSmallThreadPoolCapsThroughput(t *testing.T) {
	// Under-allocation: 2 Tomcat threads per server must throttle hard at
	// a workload an ample allocation handles easily.
	small := Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{400, 2, 6}, Seed: 3}
	ample := Options{Hardware: Hardware{1, 2, 1, 2}, Soft: SoftAlloc{400, 30, 20}, Seed: 3}
	tpSmall, rtSmall := runSmoke(t, 2500, small)
	tpAmple, rtAmple := runSmoke(t, 2500, ample)
	if tpSmall >= tpAmple {
		t.Errorf("tiny thread pool tp %.1f >= ample tp %.1f", tpSmall, tpAmple)
	}
	if rtSmall <= rtAmple {
		t.Errorf("tiny thread pool RT %v <= ample RT %v", rtSmall, rtAmple)
	}
}

func TestHardwareUtilizationReported(t *testing.T) {
	opts := Options{
		Hardware: Hardware{1, 2, 1, 2},
		Soft:     SoftAlloc{400, 15, 6},
		Seed:     5,
	}
	tb, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	ccfg := rubbos.DefaultClientConfig(1000)
	ccfg.RampUp = 5 * time.Second
	if _, err := tb.StartWorkload(ccfg, nil); err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(15 * time.Second)
	tb.ResetStats()
	tb.Env.Run(45 * time.Second)
	for _, tc := range tb.Tomcats {
		u := tc.Node.Utilization()
		if u <= 0 || u > 1 {
			t.Errorf("%s utilization %v out of (0,1]", tc.Node.Name(), u)
		}
	}
	u := tb.CJDBCs[0].Node.Utilization()
	if u <= 0 || u > 1 {
		t.Errorf("cjdbc utilization %v out of (0,1]", u)
	}
}

// Past the knee a closed workload queues most of its requests for an
// Apache worker, and no request holds a coroutine, queued or in service:
// thousands wait suspended, and every dispatch is a step.
func TestQueuedRequestsHoldNoRunner(t *testing.T) {
	const workers = 100
	tb, err := Build(Options{Hardware: Hardware{1, 1, 1, 1}, Soft: SoftAlloc{workers, 8, 4}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	cfg := rubbos.DefaultClientConfig(20000)
	cfg.RampUp = time.Second
	w, err := tb.StartWorkload(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb.Env.Run(3 * time.Second)
	c := tb.Env.Counters()
	queued := tb.Apaches[0].Workers.Queued()
	if queued < 1000 || c.Suspensions < uint64(queued) {
		t.Fatalf("%d requests queued after %d suspensions; the trial does not saturate the front door", queued, c.Suspensions)
	}
	t.Logf("%d queued, %+v", queued, c)
	// The users' think times, each request's hops, its worker wait and
	// its whole service behind the front door are steps (des.Env.GoStep).
	if c.Binds != 0 {
		t.Errorf("%d coroutines bound (%d requests in flight), want none", c.Binds, w.InFlight())
	}
	if c.Steps < w.Issued() {
		t.Errorf("%d steps, want at least one per request issued (%d)", c.Steps, w.Issued())
	}
}
