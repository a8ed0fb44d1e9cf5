// Package hw models hardware nodes: a CPU plus the bookkeeping needed to
// report total utilization the way the paper's SysStat monitoring does —
// application work and JVM garbage collection both show up as busy CPU.
package hw

import (
	"time"

	"github.com/softres/ntier/internal/des"
	"github.com/softres/ntier/internal/resource"
)

// Spec describes a node model, mirroring the paper's Fig. 1(b) hardware
// table (Emulab PC3000: 3 GHz 64-bit Xeon, 2 GB RAM, 1 Gbps NIC).
type Spec struct {
	Name      string
	Cores     int
	MemoryMiB int
}

// PC3000 is the node type every server in the paper runs on.
func PC3000() Spec { return Spec{Name: "PC3000", Cores: 1, MemoryMiB: 2048} }

// Node is one machine hosting a server. In the paper every server owns a
// dedicated node; consolidation scenarios instead give each server a
// logical view (Alias) of a shared physical node, so several tenants'
// servers contend for one CPU and disk while keeping distinct identities.
type Node struct {
	env  *des.Env
	name string
	spec Spec
	cpu  *resource.CPU

	// host is the physical node this logical view shares hardware with
	// (nil when the node owns its hardware).
	host *Node

	// overheads are cumulative busy-second integrals from co-resident
	// overhead sources (JVM GC); they add to CPU utilization.
	overheads []func() float64

	statsStart time.Duration
	baseBusy   float64 // busy integrals at the last stats reset

	disk *Disk // optional, attached via AttachDisk
}

// NewNode creates a node with a CPU of the spec's core count.
func NewNode(env *des.Env, name string, spec Spec) *Node {
	return &Node{
		env:  env,
		name: name,
		spec: spec,
		cpu:  resource.NewCPU(env, name+"/cpu", spec.Cores),
	}
}

// Alias returns a logical node named name that shares this node's CPU (and
// disk, once any view attaches one) — the co-location primitive of the
// multi-tenant fleet. Work done through the alias contends for the shared
// processor-sharing CPU with every other view, so interference between
// co-resident tenants falls out of the hardware model; the alias keeps its
// own name (pool, obs-series, and fault-target identities stay
// unambiguous) and its own overhead registry (a tenant's GC integral is
// charged to its own logical node only).
func (n *Node) Alias(name string) *Node {
	host := n
	if n.host != nil {
		host = n.host
	}
	return &Node{env: n.env, name: name, spec: n.spec, cpu: n.cpu, host: host}
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// Spec returns the hardware description.
func (n *Node) Spec() Spec { return n.spec }

// CPU returns the node's processor.
func (n *Node) CPU() *resource.CPU { return n.cpu }

// AddOverhead registers a cumulative busy-seconds integral (e.g. a JVM's
// GC time) that counts toward the node's CPU utilization.
func (n *Node) AddOverhead(integral func() float64) {
	n.overheads = append(n.overheads, integral)
}

// BusyIntegral returns total busy core-seconds: useful work plus overheads.
// Window samplers diff successive readings for per-second utilization.
func (n *Node) BusyIntegral() float64 {
	total := n.cpu.BusyIntegral()
	for _, f := range n.overheads {
		total += f()
	}
	return total
}

// ResetStats starts a fresh measurement interval (excluding ramp-up).
func (n *Node) ResetStats() {
	n.cpu.ResetStats()
	if n.disk != nil {
		n.disk.ResetStats()
	}
	n.statsStart = n.env.Now()
	n.baseBusy = 0
	for _, f := range n.overheads {
		n.baseBusy += f()
	}
}

// Audit runs the node's hardware invariant checks (CPU and, when attached,
// the disk queue); quiescent additionally requires both devices idle with
// full speed restored. Pure read — part of testbed.Testbed.Audit.
func (n *Node) Audit(quiescent bool) error {
	audit := func() error {
		if quiescent {
			return n.cpu.AuditQuiescent()
		}
		return n.cpu.Audit()
	}
	if err := audit(); err != nil {
		return err
	}
	if n.disk != nil {
		return n.disk.Audit(quiescent)
	}
	return nil
}

// Utilization returns mean total CPU utilization (capped at 1) since the
// last reset.
func (n *Node) Utilization() float64 {
	elapsed := (n.env.Now() - n.statsStart).Seconds()
	if elapsed <= 0 {
		return 0
	}
	over := -n.baseBusy
	for _, f := range n.overheads {
		over += f()
	}
	u := n.cpu.Stats().Utilization + over/elapsed/float64(n.spec.Cores)
	if u > 1 {
		u = 1
	}
	return u
}
