package netsim

import (
	"fmt"
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// SharedLink models a capacity-limited network segment (the testbed's
// 1 Gbps LAN): concurrent transfers share the bandwidth processor-sharing
// style, so a transfer's duration stretches with contention. The paper's
// request sizes never saturate the LAN, but the model makes the network a
// measurable first-class resource and supports what-if studies on slower
// segments (e.g. a 100 Mbps client uplink).
type SharedLink struct {
	mbps    float64
	latency time.Duration
	// pipe reuses the processor-sharing engine: capacity 1 "core", work
	// measured in seconds of exclusive line time.
	pipe *resource.CPU

	bytes float64
}

// NewSharedLink creates a link with the given capacity in Mbit/s and
// propagation latency. Capacity must be positive.
func NewSharedLink(env *des.Env, name string, mbps float64, latency time.Duration) *SharedLink {
	if mbps <= 0 {
		panic(fmt.Sprintf("netsim: link %q with %v Mbps", name, mbps))
	}
	return &SharedLink{
		mbps:    mbps,
		latency: latency,
		pipe:    resource.NewCPU(env, name, 1),
	}
}

// TransferTime returns the exclusive (uncontended) line time for kb
// kilobytes.
func (l *SharedLink) TransferTime(kb float64) time.Duration {
	seconds := kb * 1024 * 8 / (l.mbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// Transfer moves kb kilobytes across the link for the calling process:
// propagation latency plus line time stretched by concurrent transfers.
func (l *SharedLink) Transfer(p *des.Proc, kb float64) {
	if l.latency > 0 {
		p.Sleep(l.latency)
	}
	if kb <= 0 {
		return
	}
	l.bytes += kb * 1024
	l.pipe.Use(p, l.TransferTime(kb))
}

// Utilization returns the busy fraction of the link since the last reset.
func (l *SharedLink) Utilization() float64 { return l.pipe.Stats().Utilization }

// Throughput returns the mean goodput in Mbit/s over the interval ending
// at now, given the interval start.
func (l *SharedLink) BytesMoved() float64 { return l.bytes }

// ResetStats starts a new measurement interval.
func (l *SharedLink) ResetStats() {
	l.pipe.ResetStats()
	l.bytes = 0
}
