// Package rubbos reimplements the RUBBoS bulletin-board benchmark workload:
// 24 interaction types modelled on Slashdot-style usage, browse-only and
// read/write mixes, Markov-chain navigation, and closed-loop emulated
// clients with exponential think times.
//
// The original RUBBoS servlets and data set are not available here, so the
// per-interaction resource profiles (CPU demand per tier, SQL queries per
// servlet, static-content follow-ups) are calibrated reconstructions that
// preserve the aggregate properties the paper depends on: mix-weighted
// demand per tier, queries-per-request ratio (Req_ratio ≈ 2–3), and think
// times around 7 seconds. See DESIGN.md for the substitution rationale.
package rubbos

import (
	"fmt"

	"github.com/softres/ntier/internal/rng"
)

// Interaction describes one RUBBoS request type and its resource profile.
// CPU demands are means of lognormal service times in milliseconds; Queries
// is the mean number of SQL statements the servlet issues.
type Interaction struct {
	Name  string
	Write bool // part of the read/write mix only

	StaticFiles int     // static-content follow-up requests (served by Apache)
	ApacheMS    float64 // Apache CPU per request, incl. static follow-ups
	ServletMS   float64 // Tomcat CPU per request
	Queries     float64 // mean SQL queries per request
	CJDBCMS     float64 // C-JDBC routing CPU per query
	MySQLMS     float64 // MySQL CPU per query
	WriteMS     float64 // MySQL synchronous disk commit per SQL statement (writes only)
	ResponseKB  float64 // page weight incl. static follow-ups (client link)
	CV          rng.CV  // coefficient of variation of CPU times

	AllocTomcatMiB float64 // Tomcat heap allocation per request
	AllocCJDBCMiB  float64 // C-JDBC heap allocation per query
}

// Interaction indices. The set mirrors the 24 interactions of RUBBoS.
const (
	StoriesOfTheDay = iota // the home page
	Register
	RegisterUser
	BrowseCategories
	BrowseStoriesByCategory
	OlderStories
	ViewStory
	ViewComment
	PostComment
	StoreComment
	Search
	SearchInStories
	SearchInComments
	SearchUsers
	AuthorLogin
	AuthorTasks
	ReviewStories
	AcceptStory
	RejectStory
	SubmitStory
	StoreStory
	ModerateComment
	StoreModeratorComment
	AboutMe
	NumInteractions
)

// interactionCV is every interaction's variation of CPU times.
var interactionCV = rng.NewCV(0.8)

// Interactions returns the full interaction table. The profile constants
// below are the model's calibration surface; Table().Check() in the tests
// pins the mix-weighted aggregates.
func Interactions() []Interaction {
	t := make([]Interaction, NumInteractions)
	set := func(i int, it Interaction) { t[i] = it }

	// Browse-path interactions: cheap servlets, mostly indexed reads.
	set(StoriesOfTheDay, Interaction{
		Name: "StoriesOfTheDay", StaticFiles: 2,
		ApacheMS: 0.9, ServletMS: 2.6, Queries: 3, CJDBCMS: 0.32, MySQLMS: 0.78,
	})
	set(Register, Interaction{
		Name: "Register", StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 0.9, Queries: 0, CJDBCMS: 0.32, MySQLMS: 0.65,
	})
	set(RegisterUser, Interaction{
		Name: "RegisterUser", Write: true, StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.8, Queries: 2, CJDBCMS: 0.34, MySQLMS: 0.91,
	})
	set(BrowseCategories, Interaction{
		Name: "BrowseCategories", StaticFiles: 2,
		ApacheMS: 0.8, ServletMS: 1.6, Queries: 1, CJDBCMS: 0.32, MySQLMS: 0.65,
	})
	set(BrowseStoriesByCategory, Interaction{
		Name: "BrowseStoriesByCategory", StaticFiles: 2,
		ApacheMS: 0.8, ServletMS: 2.2, Queries: 2, CJDBCMS: 0.32, MySQLMS: 0.78,
	})
	set(OlderStories, Interaction{
		Name: "OlderStories", StaticFiles: 2,
		ApacheMS: 0.8, ServletMS: 2.4, Queries: 3, CJDBCMS: 0.32, MySQLMS: 0.85,
	})
	set(ViewStory, Interaction{
		Name: "ViewStory", StaticFiles: 2,
		ApacheMS: 0.9, ServletMS: 2.8, Queries: 3, CJDBCMS: 0.34, MySQLMS: 0.78,
	})
	set(ViewComment, Interaction{
		Name: "ViewComment", StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 2.4, Queries: 2, CJDBCMS: 0.34, MySQLMS: 0.72,
	})

	// Comment posting (read/write mix).
	set(PostComment, Interaction{
		Name: "PostComment", Write: true, StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 1.8, Queries: 2, CJDBCMS: 0.34, MySQLMS: 0.72,
	})
	set(StoreComment, Interaction{
		Name: "StoreComment", Write: true, StaticFiles: 0,
		ApacheMS: 0.5, ServletMS: 2.0, Queries: 3, CJDBCMS: 0.36, MySQLMS: 1.17,
	})

	// Search family: heavier database work.
	set(Search, Interaction{
		Name: "Search", StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.2, Queries: 0, CJDBCMS: 0.32, MySQLMS: 0.65,
	})
	set(SearchInStories, Interaction{
		Name: "SearchInStories", StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 2.6, Queries: 2, CJDBCMS: 0.36, MySQLMS: 1.30,
	})
	set(SearchInComments, Interaction{
		Name: "SearchInComments", StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 2.6, Queries: 2, CJDBCMS: 0.36, MySQLMS: 1.43,
	})
	set(SearchUsers, Interaction{
		Name: "SearchUsers", StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 2.0, Queries: 2, CJDBCMS: 0.34, MySQLMS: 0.91,
	})

	// Author/moderator workflow (read/write mix).
	set(AuthorLogin, Interaction{
		Name: "AuthorLogin", Write: true, StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.4, Queries: 1, CJDBCMS: 0.32, MySQLMS: 0.65,
	})
	set(AuthorTasks, Interaction{
		Name: "AuthorTasks", Write: true, StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.8, Queries: 2, CJDBCMS: 0.32, MySQLMS: 0.72,
	})
	set(ReviewStories, Interaction{
		Name: "ReviewStories", Write: true, StaticFiles: 2,
		ApacheMS: 0.8, ServletMS: 2.2, Queries: 3, CJDBCMS: 0.34, MySQLMS: 0.85,
	})
	set(AcceptStory, Interaction{
		Name: "AcceptStory", Write: true, StaticFiles: 0,
		ApacheMS: 0.5, ServletMS: 1.6, Queries: 2, CJDBCMS: 0.36, MySQLMS: 1.04,
	})
	set(RejectStory, Interaction{
		Name: "RejectStory", Write: true, StaticFiles: 0,
		ApacheMS: 0.5, ServletMS: 1.4, Queries: 2, CJDBCMS: 0.36, MySQLMS: 0.91,
	})
	set(SubmitStory, Interaction{
		Name: "SubmitStory", Write: true, StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.6, Queries: 1, CJDBCMS: 0.32, MySQLMS: 0.65,
	})
	set(StoreStory, Interaction{
		Name: "StoreStory", Write: true, StaticFiles: 0,
		ApacheMS: 0.5, ServletMS: 2.2, Queries: 3, CJDBCMS: 0.36, MySQLMS: 1.23,
	})
	set(ModerateComment, Interaction{
		Name: "ModerateComment", Write: true, StaticFiles: 1,
		ApacheMS: 0.6, ServletMS: 1.8, Queries: 2, CJDBCMS: 0.34, MySQLMS: 0.78,
	})
	set(StoreModeratorComment, Interaction{
		Name: "StoreModeratorComment", Write: true, StaticFiles: 0,
		ApacheMS: 0.5, ServletMS: 1.8, Queries: 2, CJDBCMS: 0.36, MySQLMS: 1.04,
	})
	set(AboutMe, Interaction{
		Name: "AboutMe", StaticFiles: 1,
		ApacheMS: 0.7, ServletMS: 2.6, Queries: 3, CJDBCMS: 0.34, MySQLMS: 0.85,
	})

	// Write interactions pay a synchronous disk commit at the database
	// (log flush + fsync on the 10k-rpm drive), once per SQL statement:
	// tier.MySQL charges it on each of the request's Queries.
	writeCost := map[int]float64{
		RegisterUser: 6, StoreComment: 8, AcceptStory: 7, RejectStory: 6,
		StoreStory: 9, StoreModeratorComment: 7, SubmitStory: 5,
		PostComment: 0, AuthorLogin: 0, AuthorTasks: 0, ReviewStories: 0,
		ModerateComment: 0,
	}
	for i, ms := range writeCost {
		t[i].WriteMS = ms
	}

	// Shared defaults. Page weight scales with the static follow-ups
	// (images) plus the dynamic HTML.
	for i := range t {
		t[i].CV = interactionCV
		t[i].AllocTomcatMiB = 0.25
		t[i].AllocCJDBCMiB = 0.04
		t[i].ResponseKB = 18 + 16*float64(t[i].StaticFiles)
	}
	return t
}

// Table bundles the interaction set with derived aggregates.
type Table struct {
	Items []Interaction
}

// NewTable returns the standard interaction table.
func NewTable() *Table { return &Table{Items: Interactions()} }

// byName returns the interaction with the given name.
func (t *Table) byName(name string) (*Interaction, error) {
	for i := range t.Items {
		if t.Items[i].Name == name {
			return &t.Items[i], nil
		}
	}
	return nil, fmt.Errorf("rubbos: unknown interaction %q", name)
}

// Aggregate holds mix-weighted mean demands — the quantities the paper's
// operational-law analysis uses.
type Aggregate struct {
	ApacheMS  float64
	ServletMS float64
	Queries   float64 // = Req_ratio
	CJDBCMS   float64 // per request (queries * per-query routing demand)
	MySQLMS   float64 // per request

	AllocTomcatMiB float64 // Tomcat heap per request
	AllocCJDBCMiB  float64 // C-JDBC heap per request (queries * per-query allocation)
}

// Aggregate computes mix-weighted mean demands. Weights must be
// NumInteractions long; negative entries count as zero.
func (t *Table) Aggregate(weights []float64) Aggregate {
	var agg Aggregate
	total := 0.0
	for i, w := range weights {
		if w <= 0 || i >= len(t.Items) {
			continue
		}
		it := t.Items[i]
		total += w
		agg.ApacheMS += w * it.ApacheMS
		agg.ServletMS += w * it.ServletMS
		agg.Queries += w * it.Queries
		agg.CJDBCMS += w * it.Queries * it.CJDBCMS
		agg.MySQLMS += w * it.Queries * it.MySQLMS
		agg.AllocTomcatMiB += w * it.AllocTomcatMiB
		agg.AllocCJDBCMiB += w * it.Queries * it.AllocCJDBCMiB
	}
	if total > 0 {
		agg.ApacheMS /= total
		agg.ServletMS /= total
		agg.Queries /= total
		agg.CJDBCMS /= total
		agg.MySQLMS /= total
		agg.AllocTomcatMiB /= total
		agg.AllocCJDBCMiB /= total
	}
	return agg
}
