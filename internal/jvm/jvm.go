// Package jvm models the garbage-collection behaviour of a Java server
// process — the mechanism behind the paper's over-allocation penalty.
//
// The model follows the paper's observations about the (synchronous,
// stop-the-world) collector of Sun JDK 1.5/1.6:
//
//   - Each resident thread (pool unit, plus any queued job holding request
//     state) pins live heap bytes, shrinking the allocation headroom.
//   - Request processing allocates; when the headroom is exhausted a
//     collection runs, freezing the CPU for a pause that grows with the
//     live set.
//   - Hence GC overhead grows super-linearly with the thread count: more
//     threads mean both more frequent and longer collections. In the
//     paper's Fig. 5(c), 200 upstream connections drive the C-JDBC
//     collector to ~90% of a 12-minute run versus ~1% at 10 connections.
package jvm

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// Config parameterizes a JVM heap/collector model. Byte quantities are in
// MiB to keep the numbers readable; only ratios matter.
type Config struct {
	HeapMiB     float64 // total heap size
	BaseLiveMiB float64 // live set with no threads (caches, code)
	MinFreeMiB  float64 // headroom floor: below this the JVM thrashes
}

// The collector's calibration, shared by every server process.
const (
	liveMiBPerSlot  = 2.0                    // live bytes pinned per resident slot
	pauseBase       = 20 * time.Millisecond  // fixed pause cost per collection
	pausePerLiveMiB = 300 * time.Microsecond // pause growth per MiB of live set
)

// DefaultConfig returns parameters calibrated for the paper's C-JDBC node
// (2 GiB machine, ~1 GiB heap).
func DefaultConfig() Config {
	return Config{
		HeapMiB:     1000,
		BaseLiveMiB: 150,
		MinFreeMiB:  100,
	}
}

// LiveMiB returns the live set with the given number of resident slots.
func (c Config) LiveMiB(slots int) float64 {
	return c.BaseLiveMiB + liveMiBPerSlot*float64(slots)
}

// HeadroomMiB returns the allocation budget between collections at the
// given live set.
func (c Config) HeadroomMiB(live float64) float64 {
	return max(c.HeapMiB-live, c.MinFreeMiB)
}

// Pause returns the pause of a collection at the given live set.
func Pause(live float64) time.Duration {
	return pauseBase + time.Duration(float64(pausePerLiveMiB)*live)
}

// JVM is one simulated Java process. Servers report allocation as they
// process work; the JVM freezes the server's CPU when a collection runs.
type JVM struct {
	env  *des.Env
	cpu  *resource.CPU
	cfg  Config
	name string

	// slots returns the number of resident slots pinning heap (threads in
	// pools plus queued jobs holding request state).
	slots func() int

	allocated float64 // MiB allocated since the last collection
	inGC      bool
	pause     time.Duration // the pause of the collection in progress

	statsStart time.Duration
	gcCount    uint64
	gcTime     time.Duration
}

// New creates a JVM bound to a CPU. slots is a gauge of resident
// memory-pinning slots; it is polled when allocations and collections
// happen.
func New(env *des.Env, name string, cpu *resource.CPU, cfg Config, slots func() int) *JVM {
	if cfg.HeapMiB <= 0 {
		panic("jvm: non-positive heap")
	}
	if slots == nil {
		slots = func() int { return 0 }
	}
	return &JVM{env: env, cpu: cpu, cfg: cfg, name: name, slots: slots}
}

// live returns the current live set in MiB.
func (j *JVM) live() float64 {
	return j.cfg.LiveMiB(j.slots())
}

// headroom returns the allocation budget before the next collection.
func (j *JVM) headroom() float64 { return j.cfg.HeadroomMiB(j.live()) }

// Allocate reports alloc MiB of allocation and starts a stop-the-world
// collection if the headroom is exhausted: it freezes the CPU, so every
// job on it pauses with the allocating process (the paper's synchronous
// collector), and reports the pause and true. The caller then waits out
// the pause (des.Proc.Rest) and calls Collected.
func (j *JVM) Allocate(alloc float64) (time.Duration, bool) {
	if alloc > 0 {
		j.allocated += alloc
	}
	if j.inGC || j.allocated < j.headroom() {
		return 0, false
	}
	j.inGC = true
	j.pause = j.PauseEstimate()
	j.cpu.SetSpeed(0)
	return j.pause, true
}

// Collected ends the collection Allocate started, once its pause is over:
// the CPU runs again and the collection is booked.
func (j *JVM) Collected() {
	j.cpu.SetSpeed(1)
	j.allocated = 0
	j.gcCount++
	j.gcTime += j.pause
	j.inGC = false
}

// PauseEstimate returns the pause a collection would take right now.
func (j *JVM) PauseEstimate() time.Duration {
	return Pause(j.live())
}

// ResetStats discards accumulated statistics and starts a new interval.
func (j *JVM) ResetStats() {
	j.statsStart = j.env.Now()
	j.gcCount = 0
	j.gcTime = 0
}

// Stats is a snapshot of a JVM's garbage-collection accounting.
type Stats struct {
	Name       string
	GCCount    uint64
	TotalGC    time.Duration
	GCFraction float64 // TotalGC over the measurement interval
	LiveMiB    float64
}

// Stats returns the collection statistics since the last reset.
func (j *JVM) Stats() Stats {
	elapsed := (j.env.Now() - j.statsStart).Seconds()
	s := Stats{Name: j.name, GCCount: j.gcCount, TotalGC: j.gcTime, LiveMiB: j.live()}
	if elapsed > 0 {
		s.GCFraction = j.gcTime.Seconds() / elapsed
	}
	return s
}

// GCTimeIntegral returns cumulative collection seconds; node monitors diff
// successive readings to fold GC overhead into CPU utilization.
func (j *JVM) GCTimeIntegral() float64 { return j.gcTime.Seconds() }
