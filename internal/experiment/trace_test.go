package experiment

import (
	"testing"
	"time"

	"github.com/softres/ntier/internal/trace"
)

func TestRunWithTracing(t *testing.T) {
	cfg := baseConfig(600)
	cfg.RampUp = 10 * time.Second
	cfg.Measure = 15 * time.Second
	cfg.TraceEvery = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Fatal("no traces collected")
	}
	if len(res.Traces) > traceKeep {
		t.Fatalf("retained %d traces, cap %d", len(res.Traces), traceKeep)
	}
	tr := res.Traces[len(res.Traces)-1]
	if tr.RT() <= 0 {
		t.Errorf("trace RT %v", tr.RT())
	}
	// Every request's journey must include at least an Apache CPU phase, a
	// Tomcat CPU phase, and spans must be well-formed and within the
	// request window.
	phases := map[string]bool{}
	for _, s := range tr.Spans {
		if s.End < s.Start {
			t.Errorf("span %s/%s ends before it starts", s.Server, s.Phase)
		}
		if s.Start < tr.Issued || s.End > tr.Done {
			t.Errorf("span %s/%s [%v,%v] outside request [%v,%v]",
				s.Server, s.Phase, s.Start, s.End, tr.Issued, tr.Done)
		}
		phases[s.Phase] = true
	}
	for _, want := range []string{"cpu", "worker-wait", "thread-wait"} {
		if !phases[want] {
			t.Errorf("trace missing phase %q: %v", want, tr.Spans)
		}
	}
	// Queries appear as route/exec pairs when the interaction has any.
	if phases["route"] != phases["exec"] {
		t.Errorf("route/exec mismatch: %v", phases)
	}

	// The breakdown must account for a substantial share of the response
	// time (hops are unattributed by design).
	bs := trace.Breakdown(res.Traces)
	if len(bs) == 0 {
		t.Fatal("empty breakdown")
	}
	var spanTotal, rtTotal time.Duration
	for _, b := range bs {
		spanTotal += b.Total
	}
	for _, x := range res.Traces {
		rtTotal += x.RT()
	}
	if spanTotal > rtTotal {
		t.Errorf("attributed %v exceeds total RT %v (overlapping spans?)", spanTotal, rtTotal)
	}
	if float64(spanTotal) < 0.5*float64(rtTotal) {
		t.Errorf("attributed only %v of %v", spanTotal, rtTotal)
	}
}

func TestRunWithoutTracing(t *testing.T) {
	cfg := baseConfig(200)
	cfg.RampUp = 5 * time.Second
	cfg.Measure = 8 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != nil {
		t.Errorf("traces present without TraceEvery: %d", len(res.Traces))
	}
}
