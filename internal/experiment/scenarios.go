package experiment

import (
	"fmt"
	"sort"
	"time"

	"github.com/softres/ntier/internal/fault"
	"github.com/softres/ntier/internal/tier"
)

// Scenario is a named fault scenario: given a base trial (topology, users,
// protocol) it produces the full fault-injection configuration.
type Scenario struct {
	Name        string
	Description string
	Configure   func(base RunConfig) ScenarioConfig
}

// Scenarios returns the built-in fault scenarios, sorted by name.
func Scenarios() []Scenario {
	out := []Scenario{
		{
			Name:        "crash-tomcat",
			Description: "crash one application server for 60s; resilient front end fails over and recovers",
			Configure: func(base RunConfig) ScenarioConfig {
				base.Measure = scenarioMeasure(base.Measure)
				base.Testbed.Resilience = defaultScenarioResilience()
				return ScenarioConfig{
					Run: base,
					Plan: fault.Plan{Events: []fault.Event{
						fault.Crash("tomcat1", 30*time.Second, 90*time.Second),
					}},
				}
			},
		},
		{
			Name:        "brownout-cjdbc",
			Description: "slow the C-JDBC node to 30% CPU speed for 60s (thermal throttling / noisy neighbor)",
			Configure: func(base RunConfig) ScenarioConfig {
				base.Measure = scenarioMeasure(base.Measure)
				base.Testbed.Resilience = defaultScenarioResilience()
				return ScenarioConfig{
					Run: base,
					Plan: fault.Plan{Events: []fault.Event{
						fault.Brownout("cjdbc1", 30*time.Second, 90*time.Second, 0.3),
					}},
				}
			},
		},
		{
			Name:        "leak-conns",
			Description: "leak half of tomcat1's DB connections for 60s (orphaned connections)",
			Configure: func(base RunConfig) ScenarioConfig {
				base.Measure = scenarioMeasure(base.Measure)
				units := base.Testbed.Soft.AppConns / 2
				if units < 1 {
					units = 1
				}
				base.Testbed.Resilience = defaultScenarioResilience()
				return ScenarioConfig{
					Run: base,
					Plan: fault.Plan{Events: []fault.Event{
						fault.ConnLeak("tomcat1/conns", 30*time.Second, 90*time.Second, units),
					}},
				}
			},
		},
		{
			Name:        "netspike",
			Description: "add 5ms to every tier-to-tier hop for 60s (switch congestion)",
			Configure: func(base RunConfig) ScenarioConfig {
				base.Measure = scenarioMeasure(base.Measure)
				base.Testbed.Resilience = defaultScenarioResilience()
				return ScenarioConfig{
					Run: base,
					Plan: fault.Plan{Events: []fault.Event{
						fault.NetSpike("link", 30*time.Second, 90*time.Second, 5*time.Millisecond),
					}},
				}
			},
		},
		{
			Name:        "retry-storm",
			Description: "crash one database for 60s under retries with no timeouts and no backoff (retry amplification)",
			Configure: func(base RunConfig) ScenarioConfig {
				base.Measure = scenarioMeasure(base.Measure)
				base.Testbed.Resilience = RetryStormResilience()
				return ScenarioConfig{
					Run: base,
					Plan: fault.Plan{Events: []fault.Event{
						fault.Crash("mysql1", 30*time.Second, 90*time.Second),
					}},
				}
			},
		},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ScenarioByName resolves a built-in scenario.
func ScenarioByName(name string) (Scenario, error) {
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, 0)
	for _, s := range Scenarios() {
		names = append(names, s.Name)
	}
	return Scenario{}, fmt.Errorf("experiment: unknown scenario %q (have %v)", name, names)
}

// scenarioMeasure stretches the default measurement window so a 30s..90s
// fault plus recovery fits; explicit settings are respected.
func scenarioMeasure(measure time.Duration) time.Duration {
	if measure == 0 || measure == 60*time.Second {
		return 180 * time.Second
	}
	return measure
}

// defaultScenarioResilience is the sane policy the named scenarios run
// under: bounded waits, retries with backoff, breakers, and load shedding.
func defaultScenarioResilience() *tier.ResilienceConfig {
	cfg := tier.DefaultResilienceConfig()
	return &cfg
}

// RetryStormResilience is the pathological anti-pattern configuration:
// unbounded waits and aggressive retries with no backoff and no breaker.
// Under a partial backend failure, every failed call is retried
// immediately, multiplying the effective downstream concurrency — the
// canonical retry storm.
func RetryStormResilience() *tier.ResilienceConfig {
	cfg := tier.DefaultResilienceConfig()
	cfg.AcquireTimeout = 0
	cfg.CallTimeout = 0
	cfg.BackoffBase = 0
	cfg.BackoffMax = 0
	cfg.Retries = 3
	cfg.Breaker = false
	cfg.MaxQueue = 0
	return &cfg
}
