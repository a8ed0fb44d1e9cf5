package fleet

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/softres/ntier/internal/testbed"
	"github.com/softres/ntier/internal/tier"
)

// Placement selects the strategy mapping tenant servers onto the shared
// node pool, in the spirit of the Allocation / GreedyAllocation exemplars:
// an explicit app×node assignment computed before the run.
type Placement string

const (
	// PlacementPacked consolidates onto the fewest nodes: first-fit in
	// tier-major order, every node filled to its slot cap before the next
	// is touched. Maximum density, maximum interference.
	PlacementPacked Placement = "PACKED"
	// PlacementSpread round-robins servers across the whole pool,
	// balancing server counts but ignoring how hot each server is.
	PlacementSpread Placement = "SPREAD"
	// PlacementGreedy is demand-scored bin packing: servers sorted by
	// estimated CPU demand (hottest first), each assigned to the
	// least-loaded node with a free slot — so two hot servers are never
	// co-located while a cold node has room. The demand estimate is the
	// utilization law over the tenant mix's declared per-tier demands
	// (tier.DeclaredDemand).
	PlacementGreedy Placement = "GREEDY"
)

// Placements lists every strategy in presentation order.
func Placements() []Placement {
	return []Placement{PlacementPacked, PlacementSpread, PlacementGreedy}
}

// ParsePlacement resolves a strategy name (case-insensitive).
func ParsePlacement(s string) (Placement, error) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case string(PlacementPacked):
		return PlacementPacked, nil
	case string(PlacementSpread):
		return PlacementSpread, nil
	case string(PlacementGreedy):
		return PlacementGreedy, nil
	}
	return "", fmt.Errorf("fleet: unknown placement %q (want PACKED, SPREAD, or GREEDY)", s)
}

// Assignment maps one tenant server onto one physical pool node.
type Assignment struct {
	Server string `json:"server"` // namespaced, e.g. "t1/tomcat1"
	Node   string `json:"node"`   // physical, e.g. "node3"

	nodeIdx int
}

// server is one placement candidate: a tenant server with its demand score.
type server struct {
	name   string
	demand float64 // estimated mean CPU demand, core-seconds per second
}

// offeredRate estimates a tenant's steady request rate: the arrival spec's
// peak for open tenants, the think-time-limited throughput bound N/Z for
// closed-loop ones (the paper's closed clients spend almost all their cycle
// thinking, so N/Z is tight at low load and an upper bound at saturation).
func (t TenantSpec) offeredRate() float64 {
	if t.Arrivals != nil {
		return t.Arrivals.MaxRate()
	}
	think := t.ThinkMean
	if think <= 0 {
		think = 7 * time.Second
	}
	return float64(t.Users) / think.Seconds()
}

// servers enumerates the fleet's placement candidates tier-major (every web
// server across tenants, then every application server, and so on), the
// order PACKED consolidates in — so density-first placement co-locates
// same-tier servers of different tenants, the realistic consolidation
// pattern. Names match what testbed.Build creates under each tenant's
// namespace.
func (o *Options) servers() []server {
	demands := make([]tier.Demand, len(o.Tenants))
	for i, t := range o.Tenants {
		demands[i] = tier.DeclaredDemand(t.Mix)
	}
	var out []server
	for ti, base := range []string{"apache", "tomcat", "cjdbc", "mysql"} {
		for i, t := range o.Tenants {
			h, d := t.Hardware, demands[i]
			n := [...]int{h.Web, h.App, h.Mid, h.DB}[ti]
			perReq := [...]time.Duration{d.Web, d.App, d.Mid, d.DB}[ti]
			rate := t.offeredRate()
			for k := 0; k < n; k++ {
				out = append(out, server{
					name:   fmt.Sprintf("%s/%s%d", t.Name, base, k+1),
					demand: rate * perReq.Seconds() / float64(n),
				})
			}
		}
	}
	return out
}

// Plan computes the placement: one assignment per tenant server, pure and
// deterministic (same Options, same plan). It fails when the pool lacks
// slots for the roster.
func Plan(opts Options) ([]Assignment, error) {
	opts.applyDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	servers := opts.servers()
	capacity := opts.Nodes * opts.SlotsPerNode
	if len(servers) > capacity {
		return nil, fmt.Errorf("fleet: %d servers need more than %d nodes x %d slots",
			len(servers), opts.Nodes, opts.SlotsPerNode)
	}

	used := make([]int, opts.Nodes)     // occupied slots per node
	load := make([]float64, opts.Nodes) // accumulated demand per node
	assign := make([]Assignment, 0, len(servers))
	place := func(s server, ni int) {
		used[ni]++
		load[ni] += s.demand
		assign = append(assign, Assignment{
			Server: s.name, Node: fmt.Sprintf("node%d", ni+1), nodeIdx: ni,
		})
	}

	switch opts.Placement {
	case PlacementPacked:
		for _, s := range servers {
			for ni := 0; ni < opts.Nodes; ni++ {
				if used[ni] < opts.SlotsPerNode {
					place(s, ni)
					break
				}
			}
		}
	case PlacementSpread:
		cursor := 0
		for _, s := range servers {
			for used[cursor%opts.Nodes] >= opts.SlotsPerNode {
				cursor++
			}
			place(s, cursor%opts.Nodes)
			cursor++
		}
	case PlacementGreedy:
		// Longest-processing-time bin packing: hottest server first onto
		// the least-loaded open node (GreedyAllocation's grant-or-refuse
		// loop, with estimated CPU demand as the scarce resource).
		order := make([]int, len(servers))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return servers[order[a]].demand > servers[order[b]].demand
		})
		for _, si := range order {
			best := -1
			for ni := 0; ni < opts.Nodes; ni++ {
				if used[ni] >= opts.SlotsPerNode {
					continue
				}
				if best < 0 || load[ni] < load[best] {
					best = ni
				}
			}
			place(servers[si], best)
		}
		// Report assignments in enumeration order regardless of the
		// demand-sorted packing order, so plans are comparable across
		// strategies.
		sort.SliceStable(assign, func(a, b int) bool {
			return serverRank(servers, assign[a].Server) < serverRank(servers, assign[b].Server)
		})
	default:
		return nil, fmt.Errorf("fleet: unknown placement %q", opts.Placement)
	}
	return assign, nil
}

// serverRank returns the enumeration index of a named server.
func serverRank(servers []server, name string) int {
	for i, s := range servers {
		if s.name == name {
			return i
		}
	}
	return len(servers)
}

// NodesUsed counts the distinct pool nodes a plan touches — PACKED's
// "fewest nodes" objective, and the denominator of goodput-per-node.
func NodesUsed(plan []Assignment) int {
	seen := map[string]bool{}
	for _, a := range plan {
		seen[a.Node] = true
	}
	return len(seen)
}

// FormatPlan renders a plan grouped by node ("node1: t1/apache1 t2/apache1").
func FormatPlan(plan []Assignment) string {
	byNode := map[string][]string{}
	var nodes []string
	for _, a := range plan {
		if len(byNode[a.Node]) == 0 {
			nodes = append(nodes, a.Node)
		}
		byNode[a.Node] = append(byNode[a.Node], a.Server)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if len(nodes[i]) != len(nodes[j]) {
			return len(nodes[i]) < len(nodes[j])
		}
		return nodes[i] < nodes[j]
	})
	var b strings.Builder
	for _, n := range nodes {
		fmt.Fprintf(&b, "%s: %s\n", n, strings.Join(byNode[n], " "))
	}
	return b.String()
}

// SplitBudget rescales each tenant's requested soft allocation so the
// fleet's total units fit a shared budget — the per-tenant split of the
// paper's soft-resource currency (Apache workers + Tomcat threads + Tomcat
// connections, the same units Algorithm 1 allocates for one application).
// Tenants shrink proportionally to their requested share, never below one
// unit per pool; a budget at or above the requested total (or zero) keeps
// every request as-is.
func SplitBudget(budget int, tenants []TenantSpec) ([]testbed.SoftAlloc, error) {
	out := make([]testbed.SoftAlloc, len(tenants))
	total := 0
	for i, t := range tenants {
		if err := t.Soft.Validate(); err != nil {
			return nil, fmt.Errorf("fleet: tenant %s: %w", t.Name, err)
		}
		out[i] = t.Soft
		total += t.Soft.Units(t.Hardware)
	}
	if budget <= 0 || total <= budget {
		return out, nil
	}
	f := float64(budget) / float64(total)
	scale := func(v int) int {
		s := int(f * float64(v))
		if s < 1 {
			s = 1
		}
		return s
	}
	for i := range out {
		out[i].WebThreads = scale(out[i].WebThreads)
		out[i].AppThreads = scale(out[i].AppThreads)
		out[i].AppConns = scale(out[i].AppConns)
	}
	return out, nil
}
