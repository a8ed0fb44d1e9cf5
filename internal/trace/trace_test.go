package trace

import (
	"strings"
	"testing"
	"time"
)

func TestTraceSpansAndRT(t *testing.T) {
	tr := &Trace{ID: 1, Interaction: "ViewStory", Issued: 10 * time.Second}
	tr.Add("apache1", "worker-wait", 10*time.Second, 10*time.Second+2*time.Millisecond)
	tr.Add("tomcat1", "cpu", 10*time.Second+2*time.Millisecond, 10*time.Second+5*time.Millisecond)
	tr.Done = 10*time.Second + 20*time.Millisecond
	if tr.RT() != 20*time.Millisecond {
		t.Errorf("RT %v, want 20ms", tr.RT())
	}
	if tr.Spans[0].Dur() != 2*time.Millisecond {
		t.Errorf("span dur %v", tr.Spans[0].Dur())
	}
	out := tr.String()
	for _, want := range []string{"ViewStory", "apache1/worker-wait", "tomcat1/cpu"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace string missing %q:\n%s", want, out)
		}
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(3, 10)
	sampled := 0
	for i := 0; i < 30; i++ {
		if tt := tr.Sample("x", 0); tt != nil {
			sampled++
			tr.Finish(tt, time.Second)
		}
	}
	if sampled != 10 {
		t.Errorf("sampled %d of 30 at every=3, want 10", sampled)
	}
	if len(tr.Traces()) != 10 {
		t.Errorf("retained %d", len(tr.Traces()))
	}
}

func TestTracerEviction(t *testing.T) {
	tr := NewTracer(1, 3)
	for i := 0; i < 5; i++ {
		tt := tr.Sample("x", time.Duration(i)*time.Second)
		tr.Finish(tt, time.Duration(i)*time.Second+time.Millisecond)
	}
	got := tr.Traces()
	if len(got) != 3 {
		t.Fatalf("retained %d, want 3", len(got))
	}
	if got[0].ID != 3 || got[2].ID != 5 {
		t.Errorf("retained IDs %d..%d, want 3..5 (oldest evicted)", got[0].ID, got[2].ID)
	}
}

func TestTracerDefaults(t *testing.T) {
	tr := NewTracer(0, 0)
	if tr.Sample("x", 0) == nil {
		t.Error("every=0 should trace everything")
	}
}

func TestBreakdown(t *testing.T) {
	t1 := &Trace{Issued: 0, Done: 10 * time.Millisecond}
	t1.Add("apache1", "cpu", 0, 2*time.Millisecond)
	t1.Add("tomcat2", "cpu", 2*time.Millisecond, 8*time.Millisecond)
	t2 := &Trace{Issued: 0, Done: 10 * time.Millisecond}
	t2.Add("apache1", "cpu", 0, 4*time.Millisecond)
	bs := Breakdown([]*Trace{t1, t2})
	if len(bs) != 2 {
		t.Fatalf("breakdown has %d phases: %v", len(bs), bs)
	}
	// tomcat/cpu total 6ms > apache/cpu total 6ms? equal: order by total;
	// apache total = 2+4 = 6ms, tomcat = 6ms. Both 3ms per request.
	for _, b := range bs {
		if b.PerReq != 3*time.Millisecond {
			t.Errorf("%s per-request %v, want 3ms", b.Phase, b.PerReq)
		}
		if b.Percent < 49 || b.Percent > 51 {
			t.Errorf("%s share %v, want ~50", b.Phase, b.Percent)
		}
	}
	out := FormatBreakdown(bs)
	if !strings.Contains(out, "apache/cpu") || !strings.Contains(out, "tomcat/cpu") {
		t.Errorf("formatted breakdown:\n%s", out)
	}
}

// Phases with equal totals (the 0 s waits of an unloaded run, above all)
// come out in Phase order, not in the map's iteration order.
func TestBreakdownBreaksTiesByPhase(t *testing.T) {
	tr := &Trace{Done: 5 * time.Millisecond}
	for _, ph := range []string{"worker-wait", "conn-wait", "thread-wait", "backoff"} {
		tr.Add("tomcat1", ph, time.Millisecond, time.Millisecond)
	}
	tr.Add("apache1", "cpu", 0, time.Millisecond)
	tr.Add("mysql1", "query", 0, time.Millisecond)
	want := []string{"apache/cpu", "mysql/query", "tomcat/backoff", "tomcat/conn-wait", "tomcat/thread-wait", "tomcat/worker-wait"}
	for run := 0; run < 20; run++ {
		var got []string
		for _, b := range Breakdown([]*Trace{tr}) {
			got = append(got, b.Phase)
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("run %d: phase order %v, want %v", run, got, want)
		}
	}
}

func TestBreakdownEmpty(t *testing.T) {
	if Breakdown(nil) != nil {
		t.Error("empty breakdown should be nil")
	}
}

func TestServerKind(t *testing.T) {
	for in, want := range map[string]string{
		"apache1": "apache", "tomcat12": "tomcat", "cjdbc1": "cjdbc", "x": "x",
	} {
		if got := serverKind(in); got != want {
			t.Errorf("serverKind(%q) = %q, want %q", in, got, want)
		}
	}
}
