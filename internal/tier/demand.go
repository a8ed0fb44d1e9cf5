package tier

import (
	"time"

	"github.com/softres/ntier/internal/rubbos"
)

// Demand is a workload mix's declared per-request cost at each tier with
// nothing else running: the CPU the four server models charge one request
// (the operational laws' service demands), Algorithm 1's Req_ratio, and the
// heap one request allocates at the two JVM tiers. Each figure is per
// request across the whole tier; a tier of n servers sees 1/n of the
// requests at each.
type Demand struct {
	Web, App, Mid, DB        time.Duration
	Queries                  float64 // SQL queries per request (Req_ratio)
	AllocAppMiB, AllocMidMiB float64 // Tomcat and C-JDBC heap per request
}

// DeclaredDemand returns mix's demands (nil = browse-only) from the
// interaction table's mix-weighted aggregates. C-JDBC's includes the
// checkout validation it charges once per query. The concurrency overheads
// are 1 at no load, and GC time is left to the JVM model, which the
// allocations drive.
func DeclaredDemand(mix *rubbos.Matrix) Demand {
	if mix == nil {
		mix = rubbos.BrowseOnlyMix()
	}
	agg := rubbos.NewTable().Aggregate(mix.Stationary())
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	return Demand{
		Web:         ms(agg.ApacheMS),
		App:         ms(agg.ServletMS),
		Mid:         ms(agg.CJDBCMS + agg.Queries*validationMS),
		DB:          ms(agg.MySQLMS),
		Queries:     agg.Queries,
		AllocAppMiB: agg.AllocTomcatMiB,
		AllocMidMiB: agg.AllocCJDBCMiB,
	}
}
