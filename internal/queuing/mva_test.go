package queuing

import (
	"math"
	"testing"
	"time"
)

func TestMVASingleStationAsymptotes(t *testing.T) {
	st := []Station{{Name: "cpu", Demand: 10 * time.Millisecond}}
	z := time.Second

	// Light load: X ≈ N/(Z + D), R ≈ D.
	r1, err := MVA(st, z, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantX := 1 / (z + 10*time.Millisecond).Seconds()
	if math.Abs(r1.Throughput-wantX) > 1e-9 {
		t.Errorf("X(1) = %v, want %v", r1.Throughput, wantX)
	}
	if r1.Response != 10*time.Millisecond {
		t.Errorf("R(1) = %v, want 10ms", r1.Response)
	}

	// Heavy load: X -> 1/Dmax = 100.
	r500, err := MVA(st, z, 500)
	if err != nil {
		t.Fatal(err)
	}
	if r500.Throughput < 99 || r500.Throughput > 100 {
		t.Errorf("X(500) = %v, want ~100 (demand bound)", r500.Throughput)
	}
	if r500.Util[0] < 0.99 || r500.Util[0] > 1 {
		t.Errorf("U(500) = %v, want ~1", r500.Util[0])
	}
}

func TestMVAThroughputMonotone(t *testing.T) {
	st := []Station{
		{Name: "a", Demand: 3 * time.Millisecond},
		{Name: "b", Demand: 5 * time.Millisecond},
		{Name: "c", Demand: 2 * time.Millisecond},
	}
	prev := 0.0
	for n := 1; n <= 400; n *= 2 {
		r, err := MVA(st, 500*time.Millisecond, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Throughput < prev-1e-9 {
			t.Fatalf("X(%d) = %v decreased from %v", n, r.Throughput, prev)
		}
		prev = r.Throughput
		// Sanity: X <= 1/Dmax and Little's law over the whole network.
		if r.Throughput > 1/0.005+1e-9 {
			t.Fatalf("X(%d) = %v exceeds demand bound 200", n, r.Throughput)
		}
		jobs := 0.0
		for _, q := range r.Queue {
			jobs += q
		}
		thinking := r.Throughput * 0.5
		if math.Abs(jobs+thinking-float64(n)) > 1e-6 {
			t.Errorf("N(%d): stations %v + thinking %v != %d", n, jobs, thinking, n)
		}
	}
}

func TestMVAZeroPopulation(t *testing.T) {
	r, err := MVA([]Station{{Name: "a", Demand: time.Millisecond}}, time.Second, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Throughput != 0 || r.Response != 0 {
		t.Errorf("empty network result %+v", r)
	}
}

func TestMVAErrors(t *testing.T) {
	if _, err := MVA(nil, time.Second, -1); err == nil {
		t.Error("negative population accepted")
	}
	if _, err := MVA([]Station{{Demand: -time.Second}}, time.Second, 1); err == nil {
		t.Error("negative demand accepted")
	}
}

func TestBottleneckStation(t *testing.T) {
	st := []Station{
		{Name: "a", Demand: 3 * time.Millisecond},
		{Name: "b", Demand: 5 * time.Millisecond},
		{Name: "c", Demand: 2 * time.Millisecond},
	}
	if got := BottleneckStation(st); got != 1 {
		t.Errorf("bottleneck %d, want 1", got)
	}
	if got := BottleneckStation(nil); got != -1 {
		t.Errorf("empty network bottleneck %d, want -1", got)
	}
}

func TestDemandsFromMeasurement(t *testing.T) {
	st, err := DemandsFromMeasurement([]string{"a", "b"}, []float64{0.8, 0.4}, 400)
	if err != nil {
		t.Fatal(err)
	}
	if st[0].Demand != 2*time.Millisecond || st[1].Demand != time.Millisecond {
		t.Errorf("demands %v", st)
	}
	if _, err := DemandsFromMeasurement([]string{"a"}, []float64{0.5, 0.5}, 1); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := DemandsFromMeasurement([]string{"a"}, []float64{0.5}, 0); err == nil {
		t.Error("zero throughput accepted")
	}
	if _, err := DemandsFromMeasurement([]string{"a"}, []float64{1.5}, 1); err == nil {
		t.Error("utilization > 1 accepted")
	}
}

func TestSaturationKnee(t *testing.T) {
	st := []Station{{Name: "a", Demand: 2 * time.Millisecond}, {Name: "b", Demand: time.Millisecond}}
	// N* = (1s + 3ms)/2ms ≈ 501.5.
	if got := SaturationKnee(st, time.Second); math.Abs(got-501.5) > 1e-9 {
		t.Errorf("N* = %v, want 501.5", got)
	}
	if !math.IsInf(SaturationKnee(nil, time.Second), 1) {
		t.Error("empty network knee should be +Inf")
	}
}

// exactMachineRepairman solves the M/M/m//N machine-repairman model — one
// m-server station with per-visit demand d, N customers, think time z —
// exactly, via its birth-death chain: birth rate (N-n)/z, death rate
// min(n,m)/d. It returns the exact throughput, the golden reference for
// the Seidmann approximation used by MVA.
func exactMachineRepairman(n, m int, d, z float64) float64 {
	// Unnormalized stationary probabilities p[k] for k jobs at the station.
	p := make([]float64, n+1)
	p[0] = 1
	for k := 1; k <= n; k++ {
		birth := float64(n-k+1) / z
		death := math.Min(float64(k), float64(m)) / d
		p[k] = p[k-1] * birth / death
	}
	var norm, x float64
	for k := 0; k <= n; k++ {
		norm += p[k]
	}
	for k := 0; k <= n; k++ {
		x += p[k] / norm * math.Min(float64(k), float64(m)) / d
	}
	return x
}

// TestMVAMultiServerGolden compares the Seidmann m-server approximation
// against the exact birth-death solution of the machine-repairman model
// across light, knee, and saturated populations. Seidmann is exact at
// m = 1 and in both limits; in between its throughput error is known to
// be a few percent pessimistic — we pin 5% as the documented tolerance.
func TestMVAMultiServerGolden(t *testing.T) {
	cases := []struct {
		m, n int
		d, z float64 // seconds
	}{
		{m: 1, n: 10, d: 0.050, z: 1},   // single server: Seidmann exact
		{m: 2, n: 2, d: 0.050, z: 1},    // N <= m: effectively a delay
		{m: 2, n: 20, d: 0.050, z: 0.5}, // around the knee
		{m: 4, n: 50, d: 0.020, z: 1},   // mid-range
		{m: 6, n: 400, d: 0.030, z: 2},  // deeply saturated: X -> m/D
		{m: 8, n: 60, d: 0.100, z: 1},   // wide pool near the knee
	}
	for _, c := range cases {
		st := []Station{{
			Name:    "pool",
			Demand:  time.Duration(c.d * float64(time.Second)),
			Servers: c.m,
		}}
		z := time.Duration(c.z * float64(time.Second))
		got, err := MVA(st, z, c.n)
		if err != nil {
			t.Fatal(err)
		}
		want := exactMachineRepairman(c.n, c.m, c.d, c.z)
		relErr := math.Abs(got.Throughput-want) / want
		tol := 0.05
		if c.m == 1 {
			tol = 1e-9 // exact single-server MVA
		}
		if relErr > tol {
			t.Errorf("m=%d N=%d: X = %v, exact %v (rel err %.3f > %.3f)",
				c.m, c.n, got.Throughput, want, relErr, tol)
		}
		// Utilization per server never exceeds 1 and matches X*D/m.
		wantU := got.Throughput * c.d / float64(c.m)
		if math.Abs(got.Util[0]-wantU) > 1e-9 || got.Util[0] > 1+1e-9 {
			t.Errorf("m=%d N=%d: U = %v, want %v <= 1", c.m, c.n, got.Util[0], wantU)
		}
		// Little's law over the whole network still holds.
		thinking := got.Throughput * c.z
		if math.Abs(got.Queue[0]+thinking-float64(c.n)) > 1e-6 {
			t.Errorf("m=%d N=%d: station %v + thinking %v != %d",
				c.m, c.n, got.Queue[0], thinking, c.n)
		}
	}
}

// TestMVAMultiServerLimits pins the two regimes Seidmann reproduces
// exactly: N <= m behaves as a pure delay (no queueing, X = N/(Z+D),
// R = D), and N >> m saturates at the m-server capacity m/D.
func TestMVAMultiServerLimits(t *testing.T) {
	st := []Station{{Name: "pool", Demand: 40 * time.Millisecond, Servers: 4}}
	z := time.Second

	light, err := MVA(st, z, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantX := 1 / (z + 40*time.Millisecond).Seconds()
	if math.Abs(light.Throughput-wantX) > 1e-3*wantX {
		t.Errorf("X(1) = %v, want ~%v (delay regime)", light.Throughput, wantX)
	}
	if got := light.Response; got < 39*time.Millisecond || got > 41*time.Millisecond {
		t.Errorf("R(1) = %v, want ~40ms (no queueing at N=1)", got)
	}

	heavy, err := MVA(st, z, 2000)
	if err != nil {
		t.Fatal(err)
	}
	cap := 4 / 0.040 // m/D = 100
	if heavy.Throughput < 0.99*cap || heavy.Throughput > cap+1e-9 {
		t.Errorf("X(2000) = %v, want ~%v (m/D capacity)", heavy.Throughput, cap)
	}
}

// TestMVAServersZeroAndOneEquivalent asserts Servers 0 and 1 are the same
// single-server station, so existing callers that never set the field are
// untouched by the m-server extension.
func TestMVAServersZeroAndOneEquivalent(t *testing.T) {
	base := []Station{
		{Name: "a", Demand: 3 * time.Millisecond},
		{Name: "b", Demand: 5 * time.Millisecond, Servers: 1},
	}
	implicit, err := MVA(base, 200*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := MVA([]Station{
		{Name: "a", Demand: 3 * time.Millisecond, Servers: 1},
		{Name: "b", Demand: 5 * time.Millisecond},
	}, 200*time.Millisecond, 50)
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Throughput != explicit.Throughput || implicit.Response != explicit.Response {
		t.Errorf("Servers 0 vs 1 diverge: %+v vs %+v", implicit, explicit)
	}
}

// TestBottleneckStationMultiServer: the bottleneck is the largest
// per-server demand D/m, not the largest raw demand.
func TestBottleneckStationMultiServer(t *testing.T) {
	st := []Station{
		{Name: "apache", Demand: 6 * time.Millisecond, Servers: 4}, // 1.5ms/server
		{Name: "tomcat", Demand: 5 * time.Millisecond, Servers: 2}, // 2.5ms/server
		{Name: "db", Demand: 2 * time.Millisecond},                 // 2ms/server
	}
	if got := BottleneckStation(st); got != 1 {
		t.Errorf("bottleneck %d, want 1 (tomcat: largest D/m)", got)
	}
}

// TestSaturationKneeMultiServer: the knee uses the per-server demand
// bound, so doubling the servers of the bottleneck pushes the knee out.
func TestSaturationKneeMultiServer(t *testing.T) {
	single := []Station{{Name: "a", Demand: 2 * time.Millisecond}}
	double := []Station{{Name: "a", Demand: 2 * time.Millisecond, Servers: 2}}
	k1 := SaturationKnee(single, time.Second)
	k2 := SaturationKnee(double, time.Second)
	if k2 <= k1 {
		t.Errorf("knee with 2 servers %v not beyond single-server knee %v", k2, k1)
	}
	// N* = (Z + R0)/(D/m) = 1.002/0.001 = 1002.
	if math.Abs(k2-1002) > 1e-9 {
		t.Errorf("2-server knee %v, want 1002", k2)
	}
}

// The MVA knee prediction should agree with the closed-form bound.
func TestMVAKneeConsistent(t *testing.T) {
	st := []Station{{Name: "cpu", Demand: 2500 * time.Microsecond}}
	z := 7 * time.Second
	knee := SaturationKnee(st, z) // ~2801
	below, _ := MVA(st, z, int(knee*0.8))
	above, _ := MVA(st, z, int(knee*1.5))
	if below.Util[0] > 0.9 {
		t.Errorf("well below the knee utilization %v", below.Util[0])
	}
	if above.Util[0] < 0.97 {
		t.Errorf("well above the knee utilization %v", above.Util[0])
	}
}
