// Package workload generates the three benchmarks of the paper at laptop
// scale: JOB (IMDb-style, 21 relations, 33 templates, 113 queries, 94/19
// split), TPC-DS (star schema, 19 templates × 6 queries, 5/1 split) and
// Stack (StackExchange-style, 12 templates × 10 queries, 8/2 split).
//
// Data is synthetic but engineered to defeat the traditional estimator the
// same way the real datasets do: fact-table foreign keys follow Zipf
// popularity, and dimension attributes correlate with popularity (e.g. a
// title's production year correlates with how many cast_info rows reference
// it). Single-column histograms with the independence assumption therefore
// misestimate join fanouts by orders of magnitude on filtered queries, which
// is precisely the optimizer regret FOSS is designed to repair.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
)

// Workload is a loaded benchmark: data, statistics, and the train/test query
// split.
type Workload struct {
	Name      string
	DB        *storage.DB
	Stats     *stats.Catalog
	Train     []*query.Query
	Test      []*query.Query
	MaxTables int // largest query arity; sizes the action space
}

// All returns train followed by test queries.
func (w *Workload) All() []*query.Query {
	out := make([]*query.Query, 0, len(w.Train)+len(w.Test))
	out = append(out, w.Train...)
	out = append(out, w.Test...)
	return out
}

// Options controls generation.
type Options struct {
	Seed  int64
	Scale float64 // 1.0 = default row counts; 0.25 = quarter size for tests
	// StatsSampleFrac is the fraction of rows the statistics builder samples
	// (estimation error source); 0 defaults to 0.3.
	StatsSampleFrac float64
}

func (o Options) normalized() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if o.StatsSampleFrac <= 0 {
		o.StatsSampleFrac = 0.3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Load builds the named workload ("job", "tpcds", "stack").
func Load(name string, opts Options) (*Workload, error) {
	opts = opts.normalized()
	switch name {
	case "job":
		return LoadJOB(opts)
	case "tpcds":
		return LoadTPCDS(opts)
	case "stack":
		return LoadStack(opts)
	}
	return nil, fmt.Errorf("workload: %q: %w", name, fosserr.ErrUnknownWorkload)
}

// Names lists the available workloads.
func Names() []string { return []string{"job", "tpcds", "stack"} }

// ---- generation helpers ----

// scaled applies the scale factor with a minimum of 10 rows.
func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 10 {
		v = 10
	}
	return v
}

// zipfRank draws a rank in [0,n) with approximate Zipf(s) skew: rank 0 is the
// most popular.
func zipfRank(rng *rand.Rand, n int, s float64) int {
	if n <= 1 {
		return 0
	}
	// inverse-CDF sampling of a power law on ranks
	u := rng.Float64()
	r := int(math.Pow(u, s) * float64(n))
	if r >= n {
		r = n - 1
	}
	return r
}

// activeRank draws a foreign-key rank concentrated on the "active prefix" of
// the referenced table: with 97% probability a Zipf draw within the top
// activeFrac of ranks, otherwise a uniform leak over the whole table. The
// entities outside the prefix are therefore (nearly) dead in the fact table —
// the anti-correlated slice a single-column histogram prices at full average
// fanout. This is the engineered estimator trap the workloads rely on.
func activeRank(rng *rand.Rand, n int, s, activeFrac float64) int {
	if rng.Float64() < 0.03 {
		return rng.Intn(n)
	}
	active := int(float64(n) * activeFrac)
	if active < 1 {
		active = 1
	}
	return zipfRank(rng, active, s)
}

// popularityYear maps a popularity rank to a tightly correlated "year":
// popular entities are recent. Range [1930, 2023] with small noise, so year
// filters act as (hidden) popularity filters that single-column histograms
// cannot see.
func popularityYear(rng *rand.Rand, rank, n int) int64 {
	frac := 1 - float64(rank)/float64(n) // popular -> close to 1
	base := 1930 + int(frac*90)
	noise := rng.Intn(7) - 3
	y := base + noise
	if y < 1930 {
		y = 1930
	}
	if y > 2023 {
		y = 2023
	}
	return int64(y)
}

// mustValidate panics if any query is structurally invalid (generator bug).
func mustValidate(qs []*query.Query, db *storage.DB) {
	for _, q := range qs {
		if err := q.Validate(); err != nil {
			panic(err)
		}
		for _, t := range q.Tables {
			if _, ok := db.Tables[t.Table]; !ok {
				panic(fmt.Sprintf("workload: query %s references unknown table %s", q.ID, t.Table))
			}
		}
		if !q.Connected() {
			panic(fmt.Sprintf("workload: query %s has a disconnected join graph", q.ID))
		}
	}
}

func maxTables(qs []*query.Query) int {
	m := 2
	for _, q := range qs {
		if q.NumTables() > m {
			m = q.NumTables()
		}
	}
	return m
}

// template is a parameterized query shape: fixed tables and joins, filters
// drawn per instance.
type template struct {
	name    string
	tables  []query.TableRef
	joins   []query.JoinPred
	filters func(rng *rand.Rand) []query.Filter
}

// instantiate creates count queries from the template with distinct seeds.
func (t template) instantiate(rng *rand.Rand, count int) []*query.Query {
	out := make([]*query.Query, 0, count)
	for i := 0; i < count; i++ {
		q := &query.Query{
			ID:       fmt.Sprintf("%s_%d", t.name, i+1),
			Template: t.name,
			Tables:   append([]query.TableRef(nil), t.tables...),
			Joins:    append([]query.JoinPred(nil), t.joins...),
			Filters:  t.filters(rng),
		}
		out = append(out, q)
	}
	return out
}

func tr(table, alias string) query.TableRef { return query.TableRef{Table: table, Alias: alias} }

func jp(la, lc, ra, rc string) query.JoinPred { return query.JoinPred{LA: la, LC: lc, RA: ra, RC: rc} }

func fEq(alias, col string, v int64) query.Filter {
	return query.Filter{Alias: alias, Col: col, Op: query.Eq, Val: v}
}

func fGt(alias, col string, v int64) query.Filter {
	return query.Filter{Alias: alias, Col: col, Op: query.Gt, Val: v}
}

func fLt(alias, col string, v int64) query.Filter {
	return query.Filter{Alias: alias, Col: col, Op: query.Lt, Val: v}
}

func fBetween(alias, col string, lo, hi int64) query.Filter {
	return query.Filter{Alias: alias, Col: col, Op: query.Between, Val: lo, Hi: hi}
}

func fIn(alias, col string, vals ...int64) query.Filter {
	return query.Filter{Alias: alias, Col: col, Op: query.In, Set: vals}
}

// col is shorthand for catalog column construction.
func col(name string, indexed bool) catalog.Column {
	return catalog.Column{Name: name, Indexed: indexed}
}

// yearFilter draws one of three regimes on a popularity-correlated year
// column. Because year tracks popularity rank, the three regimes produce
// three distinct estimator failure modes the optimizer must navigate:
//
//   - popular slice (recent years): true join fanout far above average —
//     the estimator underestimates intermediates (nested-loop disasters);
//   - unpopular slice (old years): true fanout near zero — the estimator
//     overestimates, making the optimizer scan-and-hash when an index
//     nested-loop chain would be nearly free (the paper's query-1b shape);
//   - neutral mid-range: estimates roughly right.
func yearFilter(r *rand.Rand, alias, col string) query.Filter {
	switch r.Intn(3) {
	case 0:
		return fGt(alias, col, int64(2002+r.Intn(17)))
	case 1:
		return fLt(alias, col, int64(1945+r.Intn(35)))
	default:
		return fBetween(alias, col, int64(1950+r.Intn(30)), int64(1985+r.Intn(25)))
	}
}
