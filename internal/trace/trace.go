// Package trace records the internal anatomy of individual requests — the
// simulation's version of the paper's instrumented Apache/Tomcat logging
// ("we modified Apache server source code to record its detailed internal
// processing time") and the Fig. 9 request-processing diagram: where each
// request spent its time, tier by tier and phase by phase.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Span is one timed phase of a request's journey.
type Span struct {
	Server string // e.g. "apache1", "tomcat2"
	Phase  string // e.g. "worker-wait", "service", "conn-wait", "query"
	Start  time.Duration
	End    time.Duration
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Trace is the ordered span record of one request.
type Trace struct {
	ID          uint64
	Interaction string
	Issued      time.Duration
	Done        time.Duration
	Spans       []Span
}

// Add appends a span.
func (t *Trace) Add(server, phase string, start, end time.Duration) {
	t.Spans = append(t.Spans, Span{Server: server, Phase: phase, Start: start, End: end})
}

// RT returns the request's end-to-end response time.
func (t *Trace) RT() time.Duration { return t.Done - t.Issued }

// String renders the trace as an indented timeline.
func (t *Trace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "request %d (%s): issued %v, RT %v\n",
		t.ID, t.Interaction, t.Issued.Round(time.Millisecond), t.RT().Round(100*time.Microsecond))
	for _, s := range t.Spans {
		fmt.Fprintf(&b, "  %8v +%-9v %s/%s\n",
			(s.Start - t.Issued).Round(10*time.Microsecond),
			s.Dur().Round(10*time.Microsecond), s.Server, s.Phase)
	}
	return b.String()
}

// Tracer samples one request in every `every` and retains up to `keep`
// traces (oldest evicted).
type Tracer struct {
	every  uint64
	keep   int
	nextID uint64
	count  uint64
	traces []*Trace
}

// NewTracer creates a tracer; every < 1 is treated as 1 (trace all),
// keep < 1 as 16.
func NewTracer(every uint64, keep int) *Tracer {
	if every < 1 {
		every = 1
	}
	if keep < 1 {
		keep = 16
	}
	return &Tracer{every: every, keep: keep}
}

// Sample returns a fresh trace for this request if it is selected, else
// nil. The caller attaches the trace to the request's process.
func (tr *Tracer) Sample(interaction string, now time.Duration) *Trace {
	tr.count++
	if (tr.count-1)%tr.every != 0 {
		return nil
	}
	tr.nextID++
	return &Trace{ID: tr.nextID, Interaction: interaction, Issued: now}
}

// Finish records the completed trace.
func (tr *Tracer) Finish(t *Trace, now time.Duration) {
	t.Done = now
	if len(tr.traces) == tr.keep {
		copy(tr.traces, tr.traces[1:])
		tr.traces = tr.traces[:tr.keep-1]
	}
	tr.traces = append(tr.traces, t)
}

// Traces returns the retained traces, oldest first.
func (tr *Tracer) Traces() []*Trace { return tr.traces }

// PhaseBreakdown aggregates span time by (server-kind, phase) across
// traces, answering "where do requests spend their time". Server names are
// reduced to their kind ("apache1" → "apache").
type PhaseBreakdown struct {
	Phase   string
	Total   time.Duration
	PerReq  time.Duration
	Percent float64
}

// Breakdown computes the per-phase decomposition over the traces, largest
// total first; phases with equal totals come in Phase order, so the table
// is the same on every run.
func Breakdown(traces []*Trace) []PhaseBreakdown {
	if len(traces) == 0 {
		return nil
	}
	totals := map[string]time.Duration{}
	var grand time.Duration
	for _, t := range traces {
		for _, s := range t.Spans {
			key := serverKind(s.Server) + "/" + s.Phase
			totals[key] += s.Dur()
			grand += s.Dur()
		}
	}
	out := make([]PhaseBreakdown, 0, len(totals))
	for k, d := range totals {
		pb := PhaseBreakdown{Phase: k, Total: d, PerReq: d / time.Duration(len(traces))}
		if grand > 0 {
			pb.Percent = float64(d) / float64(grand) * 100
		}
		out = append(out, pb)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// FormatBreakdown renders a breakdown table.
func FormatBreakdown(bs []PhaseBreakdown) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %12s %10s\n", "phase", "per-request", "share")
	for _, pb := range bs {
		fmt.Fprintf(&b, "%-28s %12v %9.1f%%\n",
			pb.Phase, pb.PerReq.Round(10*time.Microsecond), pb.Percent)
	}
	return b.String()
}

// serverKind strips the trailing instance number.
func serverKind(name string) string {
	i := len(name)
	for i > 0 && name[i-1] >= '0' && name[i-1] <= '9' {
		i--
	}
	return name[:i]
}
