// Package testbed builds complete n-tier topologies from the paper's
// configuration notation and runs workloads against them.
//
// Hardware provisioning uses the four-digit notation #W/#A/#C/#D (web
// servers / application servers / clustering middleware / database
// servers); soft allocation uses #W_T-#A_T-#A_C (web-server thread pool /
// app-server thread pool / app-server DB connection pool).
package testbed

import (
	"fmt"
	"strconv"
	"strings"
)

// Hardware is a #W/#A/#C/#D provisioning.
type Hardware struct {
	Web, App, Mid, DB int
}

// ParseHardware parses "1/2/1/2".
func ParseHardware(s string) (Hardware, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 4 {
		return Hardware{}, fmt.Errorf("testbed: hardware %q: want #W/#A/#C/#D", s)
	}
	vals := make([]int, 4)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return Hardware{}, fmt.Errorf("testbed: hardware %q: bad count %q", s, p)
		}
		vals[i] = v
	}
	return Hardware{Web: vals[0], App: vals[1], Mid: vals[2], DB: vals[3]}, nil
}

// String renders the #W/#A/#C/#D form.
func (h Hardware) String() string {
	return fmt.Sprintf("%d/%d/%d/%d", h.Web, h.App, h.Mid, h.DB)
}

// Validate checks every tier has at least one node.
func (h Hardware) Validate() error {
	if h.Web <= 0 || h.App <= 0 || h.Mid <= 0 || h.DB <= 0 {
		return fmt.Errorf("testbed: hardware %s: every tier needs at least one node", h)
	}
	return nil
}

// SoftAlloc is a #W_T-#A_T-#A_C soft-resource allocation: pool sizes per
// individual server.
type SoftAlloc struct {
	WebThreads int // Apache worker pool per web server
	AppThreads int // Tomcat thread pool per app server
	AppConns   int // Tomcat DB connection pool per app server
}

// Axis is one pool of a soft allocation: the unit Algorithm 1 grows when
// the bottleneck names its pool, and a pool-size study varies.
type Axis int

// The three pools of a Wt-At-Ac allocation, in tier order.
const (
	WebThreads Axis = iota // Apache worker pool per web server
	AppThreads             // Tomcat thread pool per app server
	AppConns               // Tomcat DB connection pool per app server
	NumAxes                // the number of axes
)

// axisNames are the decision-log names, poolNames the last path segment of
// each axis's pool names (internal/tier's naming), both in tier order.
var (
	axisNames = [NumAxes]string{"web-threads", "app-threads", "app-conns"}
	poolNames = [NumAxes]string{"workers", "threads", "conns"}
)

// String returns the axis's decision-log name ("app-threads").
func (a Axis) String() string { return axisNames[a] }

// Servers returns how many servers of hw hold one pool of the axis each.
func (a Axis) Servers(hw Hardware) int {
	if a == WebThreads {
		return hw.Web
	}
	return hw.App
}

// AxisOf returns the axis of a pool by the last segment of its path name:
// "tomcat1/conns" and "vic/tomcat1/conns" are AppConns, "tomcat1/db-conns"
// is no axis.
func AxisOf(pool string) (Axis, bool) {
	seg := pool[strings.LastIndexByte(pool, '/')+1:]
	for a, name := range poolNames {
		if seg == name {
			return Axis(a), true
		}
	}
	return 0, false
}

// ParseSoftAlloc parses "400-15-6".
func ParseSoftAlloc(s string) (SoftAlloc, error) {
	parts := strings.Split(s, "-")
	if len(parts) != 3 {
		return SoftAlloc{}, fmt.Errorf("testbed: soft allocation %q: want Wt-At-Ac", s)
	}
	vals := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return SoftAlloc{}, fmt.Errorf("testbed: soft allocation %q: bad size %q", s, p)
		}
		vals[i] = v
	}
	return SoftAlloc{WebThreads: vals[0], AppThreads: vals[1], AppConns: vals[2]}, nil
}

// String renders the Wt-At-Ac form.
func (s SoftAlloc) String() string {
	return fmt.Sprintf("%d-%d-%d", s.WebThreads, s.AppThreads, s.AppConns)
}

// Validate checks every pool has at least one unit.
func (s SoftAlloc) Validate() error {
	if s.WebThreads <= 0 || s.AppThreads <= 0 || s.AppConns <= 0 {
		return fmt.Errorf("testbed: soft allocation %s: every pool needs at least one unit", s)
	}
	return nil
}

// Units is the allocation's cost axis: every pool unit it holds resident
// across the hardware — Apache workers plus Tomcat threads plus DB
// connections, each times its tier's server count. This is the resource
// total the paper's Fig. 5 shows turning from asset to liability, and the
// currency of the elastic and fleet budgets.
func (s SoftAlloc) Units(hw Hardware) int {
	return hw.Web*s.WebThreads + hw.App*(s.AppThreads+s.AppConns)
}

// Get returns the allocation's per-server pool size on axis a.
func (s SoftAlloc) Get(a Axis) int {
	switch a {
	case WebThreads:
		return s.WebThreads
	case AppThreads:
		return s.AppThreads
	case AppConns:
		return s.AppConns
	}
	panic(fmt.Sprintf("testbed: no pool on axis %d", int(a)))
}

// With returns s with axis a's per-server pool size set to size.
func (s SoftAlloc) With(a Axis, size int) SoftAlloc {
	switch a {
	case WebThreads:
		s.WebThreads = size
	case AppThreads:
		s.AppThreads = size
	case AppConns:
		s.AppConns = size
	default:
		panic(fmt.Sprintf("testbed: no pool on axis %d", int(a)))
	}
	return s
}

// Scale returns the allocation with every pool multiplied by k (the
// algorithm's soft-saturation doubling step).
func (s SoftAlloc) Scale(k int) SoftAlloc {
	return SoftAlloc{
		WebThreads: s.WebThreads * k,
		AppThreads: s.AppThreads * k,
		AppConns:   s.AppConns * k,
	}
}
