package experiment

// The windowed timeline shared by the disturbance trials — fault
// scenarios, flash crowds and elastic days. Each runs through run with a
// windowing: completions are bucketed by completion time into fixed
// windows from the start of the measurement window, one gauge is read at
// every window boundary, and a single baseline-and-recovery rule judges
// how the goodput timeline came back after the disturbance.

import (
	"time"

	"github.com/softres/ntier/internal/testbed"
)

// Recovery is regaining a fraction of the pre-disturbance goodput baseline
// in a trailing moving average over recoverWindows windows.
const (
	recoverWindows   = 5
	faultRecoverFrac = 0.95 // fault scenarios
	flashRecoverFrac = 0.9  // flash crowds
)

// timelineWindow is the timeline bucket width of fault scenarios and flash
// crowds.
const timelineWindow = time.Second

// windowing is what a disturbance trial adds to a plain Run. run fills
// points and gauges.
type windowing struct {
	width     time.Duration // bucket width
	threshold time.Duration // a success within it is goodput

	// disturb, when set, runs after the testbed is built and before the
	// workload starts: it schedules a fault plan or attaches a controller.
	disturb func(tb *testbed.Testbed) error
	// gauge, when set, is read at every window boundary (pure read).
	gauge func(tb *testbed.Testbed) float64

	points []windowPoint // one per window of the measurement
	gauges []float64     // gauge at each window boundary, len(points)+1
}

// windowPoint counts the completions of one window.
type windowPoint struct {
	second    float64 // window start, seconds from measurement start
	completed int     // responses of any kind
	goodput   float64 // in-threshold successes per second
	errors    int     // error responses
	shed      int     // shed rejections
	late      int     // successes past their deadline
}

// start sizes the timeline for a measurement window.
func (w *windowing) start(measure time.Duration) {
	w.points = make([]windowPoint, (measure+w.width-1)/w.width)
	for i := range w.points {
		w.points[i].second = float64(i) * w.width.Seconds()
	}
	if w.gauge != nil {
		w.gauges = make([]float64, len(w.points)+1)
	}
}

// observe buckets one completion by its offset since the measurement
// start.
func (w *windowing) observe(since, rt time.Duration, failed, shed, late bool) {
	if since < 0 {
		return
	}
	i := int(since / w.width)
	if i >= len(w.points) {
		return
	}
	p := &w.points[i]
	p.completed++
	switch {
	case shed:
		p.shed++
	case failed:
		p.errors++
	default:
		if rt <= w.threshold {
			p.goodput += 1 / w.width.Seconds()
		}
		if late {
			p.late++
		}
	}
}

// recovery returns the goodput baseline — the mean over the windows wholly
// before start — and the end of the first window, at or after end, whose
// trailing average regains frac of it, with that offset minus end (floored
// at 0). Both offsets are -1 when there is no positive baseline or goodput
// never recovered.
func (w *windowing) recovery(start, end time.Duration, frac float64) (base float64, at, took time.Duration) {
	n := 0
	for _, p := range w.points {
		if time.Duration((p.second+w.width.Seconds())*float64(time.Second)) > start {
			break
		}
		base += p.goodput
		n++
	}
	if n == 0 {
		return 0, -1, -1
	}
	base /= float64(n)
	if base <= 0 {
		return base, -1, -1
	}
	for i := recoverWindows - 1; i < len(w.points); i++ {
		at := time.Duration(float64(i+1) * w.width.Seconds() * float64(time.Second))
		if at < end {
			continue
		}
		avg := 0.0
		for _, p := range w.points[i+1-recoverWindows : i+1] {
			avg += p.goodput
		}
		avg /= recoverWindows
		if avg >= frac*base {
			return base, at, max(at-end, 0)
		}
	}
	return base, -1, -1
}

// cjdbcBusy reads the C-JDBC busy integral: its difference over a window
// is busy-unit-seconds, i.e. mean effective concurrency.
func cjdbcBusy(tb *testbed.Testbed) float64 {
	sum := 0.0
	for _, c := range tb.CJDBCs {
		sum += c.BusyIntegral()
	}
	return sum
}

// queued reads the requests waiting in tier queues: Apache workers,
// Tomcat servlet threads and DB connections.
func queued(tb *testbed.Testbed) float64 {
	sum := 0
	for _, a := range tb.Apaches {
		sum += a.Workers.Queued()
	}
	for _, t := range tb.Tomcats {
		sum += t.Threads.Queued() + t.Conns.Queued()
	}
	return float64(sum)
}
