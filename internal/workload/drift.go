package workload

// Drift scenarios: deterministic serving-distribution shifts over a loaded
// benchmark, giving the online doctor loop something to adapt to. Three kinds
// mirror how production query mixes move under the feet of a learned
// optimizer:
//
//   - template-mix: the serving mix rotates from one half of the query
//     templates to the other (a product launch changes which reports run);
//   - selectivity: the same templates keep arriving but their parameters
//     shift into the popular/unpopular data slices where the traditional
//     estimator errs the most (a marketing push makes everyone query the
//     newest titles);
//   - novel-template: structurally new query shapes — leaf-dropped variants
//     of existing templates — are injected alongside the familiar mix (a new
//     dashboard ships);
//   - schema-evolution: the schema itself moves — a DDL batch drops the index
//     on the hottest join column and adds a fresh table at the shift point,
//     while post-shift traffic ramps toward the queries that join on the
//     now-unindexed column (an ops migration lands mid-day).
//
// All generation is pure function of (workload, kind, options): the same seed
// always yields the same query stream.

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/query"
)

// DriftKind names a deterministic serving-distribution shift scenario.
type DriftKind string

// The four drift scenario kinds.
const (
	DriftTemplateMix     DriftKind = "template-mix"
	DriftSelectivity     DriftKind = "selectivity"
	DriftNovelTemplate   DriftKind = "novel-template"
	DriftSchemaEvolution DriftKind = "schema-evolution"
)

// driftKinds is the registry Drift and DriftKinds both read.
var driftKinds = []struct {
	kind  DriftKind
	build func(*Workload, *rand.Rand, DriftOptions) (*DriftScenario, error)
}{
	{DriftTemplateMix, driftTemplateMix},
	{DriftSelectivity, driftSelectivity},
	{DriftNovelTemplate, driftNovelTemplate},
	{DriftSchemaEvolution, driftSchemaEvolution},
}

// DriftKinds lists the available scenario kinds.
func DriftKinds() []DriftKind {
	out := make([]DriftKind, len(driftKinds))
	for i, d := range driftKinds {
		out[i] = d.kind
	}
	return out
}

// DriftOptions controls scenario generation.
type DriftOptions struct {
	Seed    int64
	PreLen  int // queries before the shift
	PostLen int // queries after the shift
}

func (o DriftOptions) normalized() DriftOptions {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.PreLen <= 0 {
		o.PreLen = 60
	}
	if o.PostLen <= 0 {
		o.PostLen = 60
	}
	return o
}

// DriftScenario is a two-phase query stream: Pre draws from the workload's
// steady-state distribution, Post from the shifted one. A schema-evolution
// scenario additionally carries the DDL batch the harness applies to the live
// catalog at ShiftAt(), between the last Pre query and the first Post query;
// for the other kinds DDL is nil.
type DriftScenario struct {
	Kind DriftKind
	Pre  []*query.Query
	Post []*query.Query
	DDL  []catalog.DDL
}

// Stream returns the full serving sequence, Pre followed by Post.
func (s *DriftScenario) Stream() []*query.Query {
	out := make([]*query.Query, 0, len(s.Pre)+len(s.Post))
	out = append(out, s.Pre...)
	out = append(out, s.Post...)
	return out
}

// ShiftAt returns the stream index where the distribution shifts.
func (s *DriftScenario) ShiftAt() int { return len(s.Pre) }

// TemplateHistogram counts queries per template name.
func TemplateHistogram(qs []*query.Query) map[string]int {
	h := map[string]int{}
	for _, q := range qs {
		h[q.Template]++
	}
	return h
}

// Drift builds the named scenario over a loaded workload. Every generated
// query is validated against the workload's catalog before it is returned.
func Drift(w *Workload, kind DriftKind, opts DriftOptions) (*DriftScenario, error) {
	var build func(*Workload, *rand.Rand, DriftOptions) (*DriftScenario, error)
	for _, d := range driftKinds {
		if d.kind == kind {
			build = d.build
		}
	}
	if build == nil {
		return nil, fmt.Errorf("workload: unknown drift kind %q", kind)
	}
	opts = opts.normalized()
	s, err := build(w, rand.New(rand.NewSource(opts.Seed)), opts)
	if err != nil {
		return nil, err
	}
	for _, q := range s.Stream() {
		if err := validateAgainst(q, w); err != nil {
			return nil, fmt.Errorf("workload: drift %s: %w", kind, err)
		}
	}
	if len(s.DDL) > 0 {
		// Dry-apply the batch on a throwaway versioned catalog (COW — the
		// workload's own schema is untouched) so a broken generator surfaces
		// here, not when the harness applies it to a live doctor.
		if _, _, err := catalog.NewVersioned(w.DB.Schema).Apply(s.DDL); err != nil {
			return nil, fmt.Errorf("workload: drift %s ddl: %w", kind, err)
		}
	}
	return s, nil
}

// validateAgainst checks a generated query structurally and against the
// workload's catalog (the non-panicking sibling of mustValidate, since drift
// generation is library API).
func validateAgainst(q *query.Query, w *Workload) error {
	if err := q.Validate(); err != nil {
		return err
	}
	for _, t := range q.Tables {
		tab, ok := w.DB.Tables[t.Table]
		if !ok {
			return fmt.Errorf("query %s references unknown table %s", q.ID, t.Table)
		}
		cols := map[string]bool{}
		for _, c := range tab.Meta.Columns {
			cols[c.Name] = true
		}
		for _, f := range q.Filters {
			if f.Alias == t.Alias && !cols[f.Col] {
				return fmt.Errorf("query %s filters unknown column %s.%s", q.ID, t.Table, f.Col)
			}
		}
	}
	if !q.Connected() {
		return fmt.Errorf("query %s has a disconnected join graph", q.ID)
	}
	return nil
}

// groupByTemplate partitions queries by template, with template names in
// sorted order for determinism.
func groupByTemplate(qs []*query.Query) ([]string, map[string][]*query.Query) {
	by := map[string][]*query.Query{}
	for _, q := range qs {
		by[q.Template] = append(by[q.Template], q)
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, by
}

// sampleFrom draws n queries uniformly (with replacement) from the pool.
func sampleFrom(rng *rand.Rand, pool []*query.Query, n int) []*query.Query {
	out := make([]*query.Query, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pool[rng.Intn(len(pool))])
	}
	return out
}

// driftTemplateMix serves one half of the templates pre-shift and the other
// half post-shift.
func driftTemplateMix(w *Workload, rng *rand.Rand, opts DriftOptions) (*DriftScenario, error) {
	names, by := groupByTemplate(w.Train)
	if len(names) < 2 {
		return nil, fmt.Errorf("template-mix drift needs >= 2 templates, have %d", len(names))
	}
	half := len(names) / 2
	var poolA, poolB []*query.Query
	for _, n := range names[:half] {
		poolA = append(poolA, by[n]...)
	}
	for _, n := range names[half:] {
		poolB = append(poolB, by[n]...)
	}
	return &DriftScenario{
		Kind: DriftTemplateMix,
		Pre:  sampleFrom(rng, poolA, opts.PreLen),
		Post: sampleFrom(rng, poolB, opts.PostLen),
	}, nil
}

// driftSelectivity keeps the template mix but re-parameterizes post-shift
// filters into the extreme data slices — range predicates move to the top or
// bottom decile of each column's domain, exactly where the correlated data
// makes single-column histograms misestimate the hardest.
func driftSelectivity(w *Workload, rng *rand.Rand, opts DriftOptions) (*DriftScenario, error) {
	pre := sampleFrom(rng, w.Train, opts.PreLen)
	post := make([]*query.Query, 0, opts.PostLen)
	for i := 0; i < opts.PostLen; i++ {
		base := w.Train[rng.Intn(len(w.Train))]
		post = append(post, shiftSelectivity(w, base, rng, i))
	}
	return &DriftScenario{Kind: DriftSelectivity, Pre: pre, Post: post}, nil
}

// shiftSelectivity clones a query with its range filters pushed into extreme
// deciles of the filtered column's domain (taken from the stats catalog).
// Equality and membership filters are left alone: they bind dimension keys
// whose domains are tiny.
func shiftSelectivity(w *Workload, base *query.Query, rng *rand.Rand, idx int) *query.Query {
	q := cloneQuery(base)
	q.ID = fmt.Sprintf("%s_sel%d", base.ID, idx)
	for i, f := range q.Filters {
		cs := columnStats(w, base, f.Alias, f.Col)
		if cs == nil {
			continue
		}
		span := cs.Max - cs.Min
		if span < 10 {
			continue
		}
		jitter := rng.Int63n(span/20 + 1)
		switch f.Op {
		case query.Gt, query.Ge:
			// top decile: the popular/recent slice, where true join fanout is
			// far above the histogram's average (underestimation regime)
			q.Filters[i].Val = cs.Min + span*17/20 + jitter
		case query.Lt, query.Le:
			// bottom decile: the near-dead slice, where the histogram prices
			// full average fanout that never materializes (overestimation)
			q.Filters[i].Val = cs.Min + span*3/20 - jitter
		case query.Between:
			lo := cs.Min + span*16/20 + jitter
			q.Filters[i].Val = lo
			q.Filters[i].Hi = lo + span/10
		}
	}
	return q
}

// driftNovelTemplate injects structurally new query shapes: leaf-dropped
// variants of existing templates, mixed 50/50 with the familiar stream.
func driftNovelTemplate(w *Workload, rng *rand.Rand, opts DriftOptions) (*DriftScenario, error) {
	pre := sampleFrom(rng, w.Train, opts.PreLen)
	// Deterministic novel pool: every train query that admits a leaf drop.
	var novel []*query.Query
	for _, base := range w.Train {
		if v := dropLeafVariant(base); v != nil {
			novel = append(novel, v)
		}
	}
	if len(novel) == 0 {
		return nil, fmt.Errorf("novel-template drift: no query admits a leaf drop")
	}
	post := make([]*query.Query, 0, opts.PostLen)
	for i := 0; i < opts.PostLen; i++ {
		if i%2 == 0 {
			post = append(post, novel[rng.Intn(len(novel))])
		} else {
			post = append(post, w.Train[rng.Intn(len(w.Train))])
		}
	}
	return &DriftScenario{Kind: DriftNovelTemplate, Pre: pre, Post: post}, nil
}

// driftSchemaEvolution emits a DDL batch at the shift point — drop the index
// on the workload's hottest join column, add a fresh side table — while the
// post-shift stream ramps linearly toward the queries that join on the
// now-unindexed column. The learned doctor's tier memory for those templates
// was priced against index access paths that no longer exist; the ramp gives
// it a graded, deterministic re-learning signal rather than a cliff.
func driftSchemaEvolution(w *Workload, rng *rand.Rand, opts DriftOptions) (*DriftScenario, error) {
	table, col, hotPool, coldPool, err := hottestIndexedJoinColumn(w)
	if err != nil {
		return nil, err
	}
	ddl := []catalog.DDL{
		{Kind: catalog.DDLDropIndex, Table: table, Column: col},
		{Kind: catalog.DDLAddTable, Table: table + "_evolved", Columns: []catalog.Column{
			{Name: "id", Indexed: true},
			{Name: table + "_" + col}, // reference back to the hot column
		}},
	}
	pre := sampleFrom(rng, w.Train, opts.PreLen)
	post := make([]*query.Query, 0, opts.PostLen)
	for i := 0; i < opts.PostLen; i++ {
		// Linear ramp: the share of hot-column traffic grows from ~0 to ~1
		// across the post window (the migration's consumers roll out slowly).
		if rng.Float64() < float64(i+1)/float64(opts.PostLen) {
			post = append(post, hotPool[rng.Intn(len(hotPool))])
		} else {
			post = append(post, coldPool[rng.Intn(len(coldPool))])
		}
	}
	return &DriftScenario{Kind: DriftSchemaEvolution, Pre: pre, Post: post, DDL: ddl}, nil
}

// hottestIndexedJoinColumn finds the most-joined indexed column whose query
// pool is a strict subset of the training stream (so the ramp toward it is an
// actual distribution shift — a column every query joins, like a ubiquitous
// dimension key, gives the doctor nothing to re-learn against). Ties break
// lexically on table.column for determinism. Returns the hot pool (queries
// joining on it) and the cold pool (the rest).
func hottestIndexedJoinColumn(w *Workload) (table, col string, hot, cold []*query.Query, err error) {
	counts := map[[2]string]int{}
	for _, q := range w.Train {
		for _, j := range q.Joins {
			for _, side := range [][2]string{{q.TableOf(j.LA), j.LC}, {q.TableOf(j.RA), j.RC}} {
				if isIndexed(w, side[0], side[1]) {
					counts[side]++
				}
			}
		}
	}
	cands := make([][2]string, 0, len(counts))
	for k := range counts {
		cands = append(cands, k)
	}
	sort.Slice(cands, func(a, b int) bool {
		if counts[cands[a]] != counts[cands[b]] {
			return counts[cands[a]] > counts[cands[b]]
		}
		return cands[a][0]+"."+cands[a][1] < cands[b][0]+"."+cands[b][1]
	})
	for _, c := range cands {
		hot, cold = splitByJoinColumn(w.Train, c[0], c[1])
		if len(hot) > 0 && len(cold) > 0 {
			return c[0], c[1], hot, cold, nil
		}
	}
	return "", "", nil, nil, fmt.Errorf("schema-evolution drift: no indexed join column splits the training stream")
}

// splitByJoinColumn partitions queries by whether any join predicate touches
// table.col.
func splitByJoinColumn(qs []*query.Query, table, col string) (hot, cold []*query.Query) {
	for _, q := range qs {
		touches := false
		for _, j := range q.Joins {
			if (q.TableOf(j.LA) == table && j.LC == col) ||
				(q.TableOf(j.RA) == table && j.RC == col) {
				touches = true
				break
			}
		}
		if touches {
			hot = append(hot, q)
		} else {
			cold = append(cold, q)
		}
	}
	return hot, cold
}

// isIndexed reports whether table.col exists and carries an index in the
// workload's catalog.
func isIndexed(w *Workload, table, col string) bool {
	tab, ok := w.DB.Tables[table]
	if !ok {
		return false
	}
	for _, c := range tab.Meta.Columns {
		if c.Name == col {
			return c.Indexed
		}
	}
	return false
}

// dropLeafVariant derives a novel template from a query by removing one
// degree-1 alias from its join graph (plus the joins and filters touching
// it), keeping the result connected, >= 3 tables, and still filtered. Returns
// nil when no alias qualifies.
func dropLeafVariant(base *query.Query) *query.Query {
	if base.NumTables() <= 3 {
		return nil
	}
	degree := map[string]int{}
	for _, j := range base.Joins {
		degree[j.LA]++
		degree[j.RA]++
	}
	for i := len(base.Tables) - 1; i >= 0; i-- {
		alias := base.Tables[i].Alias
		if degree[alias] != 1 {
			continue
		}
		q := cloneQuery(base)
		q.ID = base.ID + "_novel"
		q.Template = "novel:" + base.Template
		q.Tables = append(q.Tables[:i:i], q.Tables[i+1:]...)
		var joins []query.JoinPred
		for _, j := range base.Joins {
			if !j.Touches(alias) {
				joins = append(joins, j)
			}
		}
		q.Joins = joins
		var filters []query.Filter
		for _, f := range base.Filters {
			if f.Alias != alias {
				filters = append(filters, f)
			}
		}
		if len(filters) == 0 {
			continue // an unfiltered join star would dominate the stream
		}
		q.Filters = filters
		if !q.Connected() {
			continue
		}
		return q
	}
	return nil
}

// cloneQuery deep-copies a query so scenario mutations never alias the
// workload's own instances.
func cloneQuery(q *query.Query) *query.Query {
	c := &query.Query{
		ID:       q.ID,
		Template: q.Template,
		Tables:   append([]query.TableRef(nil), q.Tables...),
		Joins:    append([]query.JoinPred(nil), q.Joins...),
		Filters:  append([]query.Filter(nil), q.Filters...),
	}
	for i, f := range c.Filters {
		if f.Set != nil {
			c.Filters[i].Set = append([]int64(nil), f.Set...)
		}
	}
	return c
}

// columnStats resolves the stats entry for alias.col in the query, or nil.
func columnStats(w *Workload, q *query.Query, alias, col string) *stats.ColumnStats {
	table := q.TableOf(alias)
	if table == "" {
		return nil
	}
	ts := w.Stats.Table(table)
	if ts == nil {
		return nil
	}
	return ts.Cols[col]
}
