package experiment

// The windowed timeline shared by the disturbance trials — fault
// scenarios, flash crowds and elastic days. Each runs through run with a
// windowing: completions are bucketed by completion time into fixed
// windows from the start of the measurement window, one gauge is read at
// every window boundary, and a single baseline-and-recovery rule judges
// how the goodput timeline came back after the disturbance.

import (
	"time"

	"github.com/softres/ntier/internal/des"
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

	points []WindowPoint // one per window of the measurement
	gauges []float64     // gauge at each window boundary, len(points)+1
}

// WindowPoint is one window of a disturbance trial's timeline, bucketed by
// completion time from the start of the measurement window. Gauge is the
// one reading the trial adds per window: a fault scenario's mean C-JDBC
// concurrency over the window, a flash crowd's queued requests and an
// elastic day's allocated soft units at the window start. Its JSON key is
// the elastic journal's "units".
type WindowPoint struct {
	Second    float64 `json:"second"`    // window start, seconds from measurement start
	Completed int     `json:"completed"` // responses of any kind
	Goodput   float64 `json:"goodput"`   // in-threshold successes per second
	Errors    int     `json:"errors"`    // error responses
	Shed      int     `json:"shed"`      // shed rejections
	Late      int     `json:"late"`      // successes past their deadline
	Gauge     float64 `json:"units"`
}

// start sizes the timeline for a measurement window of whole windows.
func (w *windowing) start(measure time.Duration) {
	w.points = make([]WindowPoint, measure/w.width)
	for i := range w.points {
		w.points[i].Second = float64(i) * w.width.Seconds()
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
	p.Completed++
	switch {
	case shed:
		p.Shed++
	case failed:
		p.Errors++
	default:
		if rt <= w.threshold {
			p.Goodput += 1 / w.width.Seconds()
		}
		if late {
			p.Late++
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
		if time.Duration((p.Second+w.width.Seconds())*float64(time.Second)) > start {
			break
		}
		base += p.Goodput
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
			avg += p.Goodput
		}
		avg /= recoverWindows
		if avg >= frac*base {
			return base, at, max(at-end, 0)
		}
	}
	return base, -1, -1
}

// atBoundaries schedules read(i) at start+i*width for i in [0, n): the
// window-boundary ticks of the windowed gauges and the Fig. 7/8 samples,
// all scheduled before the trial's legs run.
func atBoundaries(env *des.Env, start, width time.Duration, n int, read func(i int)) {
	for i := range n {
		env.At(start+time.Duration(i)*width, func() { read(i) })
	}
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
