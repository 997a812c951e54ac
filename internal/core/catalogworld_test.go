package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/workload"
)

// TestCheckCatalogMemoFollowsGeneration: CheckCatalog skips its lookups only
// for the exact schema a query last passed against. A DDL that drops one of
// the query's tables makes the next check refuse it, and two systems that
// share the query and sit at the same catalog epoch with different schemas
// each answer for their own schema, however their checks interleave.
func TestCheckCatalogMemoFollowsGeneration(t *testing.T) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	newSys := func() *System {
		sys, err := New(w, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	a, b := newSys(), newSys()
	q := w.Train[0]
	dropped := q.Tables[0].Table
	var other string
	for _, name := range a.CatalogSchema().Order {
		if !slices.ContainsFunc(q.Tables, func(r query.TableRef) bool { return r.Table == name }) {
			other = name
			break
		}
	}
	if other == "" {
		t.Fatalf("query %s references every table", q.ID)
	}
	drop := func(sys *System, table string) {
		t.Helper()
		if _, err := sys.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: table}}); err != nil {
			t.Fatal(err)
		}
	}
	stale := func(err error) bool { return errors.Is(err, fosserr.ErrCatalogStale) }

	for i := 0; i < 2; i++ { // the second check is the memoized one
		if err := a.CheckCatalog(q); err != nil {
			t.Fatalf("check %d before the DDL: %v", i, err)
		}
	}
	drop(a, dropped)
	if err := a.CheckCatalog(q); !stale(err) {
		t.Fatalf("check after dropping %s: %v, want ErrCatalogStale", dropped, err)
	}

	// b drops a table q never names: same epoch as a, different schema.
	drop(b, other)
	if a.CatalogEpoch() != b.CatalogEpoch() {
		t.Fatalf("catalog epochs %d and %d, want equal", a.CatalogEpoch(), b.CatalogEpoch())
	}
	for i := 0; i < 3; i++ {
		if err := b.CheckCatalog(q); err != nil {
			t.Fatalf("interleaved check %d on b: %v", i, err)
		}
		if err := a.CheckCatalog(q); !stale(err) {
			t.Fatalf("interleaved check %d on a passed on b's memo: %v", i, err)
		}
	}

	var wg sync.WaitGroup
	for _, sys := range []*System{a, b} {
		wg.Add(1)
		go func(sys *System, wantStale bool) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if err := sys.CheckCatalog(q); stale(err) != wantStale {
					t.Errorf("concurrent check %d: %v, want stale=%v", i, err, wantStale)
					return
				}
			}
		}(sys, sys == a)
	}
	wg.Wait()
}

// TestOptimizeUnknownTableIsStale: the public optimize paths gate a miss on
// the catalog the way ExpertPlan and Execute do. A query naming a table the
// catalog never had fails with ErrCatalogStale, where it used to panic in the
// storage layer, and a valid query still serves afterwards.
func TestOptimizeUnknownTableIsStale(t *testing.T) {
	sys := smallSystem(t, nil)
	src := sys.W.Train[0]
	q := &query.Query{ID: "ghost", Tables: slices.Clone(src.Tables), Joins: src.Joins, Filters: src.Filters}
	q.Tables[0].Table = "no_such_table"
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stale := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, fosserr.ErrCatalogStale) {
			t.Fatalf("%s of a query naming an unknown table: %v, want ErrCatalogStale", what, err)
		}
	}
	_, _, err := sys.OptimizeContext(ctx, q)
	stale("OptimizeContext", err)
	_, _, _, err = sys.OptimizeEvalContext(ctx, q)
	stale("OptimizeEvalContext", err)
	_, err = sys.ExplainCandidates(ctx, q)
	stale("ExplainCandidates", err)
	_, _, err = sys.ExpertPlan(q)
	stale("ExpertPlan", err)
	if _, _, err := sys.OptimizeContext(ctx, src); err != nil {
		t.Fatalf("a valid query after the stale one: %v", err)
	}
}

// TestResyncCatalogLandsOnNewestBackend: two systems share one catalog world
// through Clone. Two DDL batches applied through the first leave the second
// on the load-time backend until its ResyncCatalog, which lands on the
// newest generation (never the one in between) and empties its plan cache.
// A repeat resync finds nothing to do and keeps the cache and its epoch.
func TestResyncCatalogLandsOnNewestBackend(t *testing.T) {
	a := smallSystem(t, func(c *Config) { c.PlanCache = 64 })
	b, err := a.Clone()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	qs := b.W.Train[:3]
	serve := func() {
		t.Helper()
		for _, q := range qs {
			if _, _, _, err := b.OptimizeEvalContext(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	serve()
	loadTime := b.Backend
	var mid backend.Backend
	for i, table := range []string{"evolved_a", "evolved_b"} {
		if _, err := a.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLAddTable, Table: table, Columns: []catalog.Column{{Name: "id", Indexed: true}}}}); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			mid = a.Backend
		}
	}
	newest, epoch := a.world.snapshot()
	if epoch != 2 || a.Backend != newest || newest == mid || mid == loadTime {
		t.Fatalf("fixture: epoch %d, a on the newest backend %v, three distinct generations %v", epoch, a.Backend == newest, newest != mid && mid != loadTime)
	}
	if b.Backend != loadTime {
		t.Fatal("b left its load-time backend before its resync")
	}
	filled := b.CacheStats()
	if filled.Size == 0 {
		t.Fatal("fixture: b's plan cache is empty before the resync")
	}
	if err := b.ResyncCatalog(); err != nil {
		t.Fatal(err)
	}
	if b.Backend != newest || b.Learner.Exec != newest || b.Planners[0].Opt != newest {
		t.Fatalf("b resynced to another backend than the world's newest (backend %v, learner %v, planner %v)",
			b.Backend == newest, b.Learner.Exec == newest, b.Planners[0].Opt == newest)
	}
	if st := b.CacheStats(); st.Size != 0 || st.Epoch != filled.Epoch+1 {
		t.Fatalf("resync left the plan cache at %d entries, epoch %d (before: %d, epoch %d)", st.Size, st.Epoch, filled.Size, filled.Epoch)
	}

	serve()
	filled = b.CacheStats()
	if err := b.ResyncCatalog(); err != nil {
		t.Fatal(err)
	}
	if st := b.CacheStats(); st.Size != filled.Size || st.Epoch != filled.Epoch {
		t.Fatalf("a no-op resync moved the plan cache: %d entries, epoch %d (before: %d, epoch %d)", st.Size, st.Epoch, filled.Size, filled.Epoch)
	}
	if _, hit, _, err := b.OptimizeEvalContext(ctx, qs[0]); err != nil || !hit {
		t.Fatalf("serve after a no-op resync: hit=%v err=%v", hit, err)
	}
}

// TestDDLBesideRetrainAndServes: serves and regressed feedback from several
// goroutines force a background retrain, and two Loop.ApplyDDL batches land
// while it runs — the first adds a table, the second drops one some of the
// served queries name. Afterwards the active replica serves the world's
// newest backend, the loop reports the world's catalog epoch, and the only
// serve error is ErrCatalogStale. Every feedback record the journal holds
// names only tables of the catalog generation current at its WAL position,
// so replay ingests what the live loop did. CI runs it under -race
// -count=10.
func TestDDLBesideRetrainAndServes(t *testing.T) {
	sys := smallSystem(t, func(c *Config) {
		c.PlanCache = 64
		c.Learner.InferenceRollouts = 2
	})
	queries := sys.W.Train[:8]
	refs := map[string]int{}
	for _, q := range queries {
		for _, r := range q.Tables {
			refs[r.Table]++
		}
	}
	var dropped string
	for _, name := range sys.CatalogSchema().Order {
		if n := refs[name]; n > 0 && n < len(queries) {
			dropped = name
			break
		}
	}
	if dropped == "" {
		t.Fatal("fixture: no table is named by some but not all of the queries")
	}
	expert := map[string]float64{}
	for _, q := range queries {
		ecp, _, err := sys.ExpertPlan(q)
		if err != nil {
			t.Fatal(err)
		}
		expert[q.ID] = sys.Execute(ecp)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	cfg := onlineConfig(false)
	cfg.Store = st
	if err := sys.EnableOnline(cfg); err != nil {
		t.Fatal(err)
	}
	lp := sys.Online()
	t.Cleanup(func() { _ = lp.Close(context.Background()) })

	var mu sync.Mutex
	var failures []string
	fail := func(msg string) {
		mu.Lock()
		failures = append(failures, msg)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 24; i++ {
				q := queries[(g*3+i)%len(queries)]
				res, err := sys.ServeContext(context.Background(), q)
				if errors.Is(err, fosserr.ErrCatalogStale) {
					continue
				}
				if err != nil {
					fail("serve " + q.ID + ": " + err.Error())
					return
				}
				// A DDL between the serve and the record refuses the record
				// just as it refuses the serve.
				if err := sys.Record(q, res.Eval, expert[q.ID]*5); err != nil && !errors.Is(err, fosserr.ErrCatalogStale) {
					fail("record " + q.ID + ": " + err.Error())
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000 && !lp.Stats().Retraining; i++ {
			time.Sleep(time.Millisecond)
		}
		batches := [][]catalog.DDL{
			{{Kind: catalog.DDLAddTable, Table: "evolved", Columns: []catalog.Column{{Name: "id", Indexed: true}}}},
			{{Kind: catalog.DDLDropTable, Table: dropped}},
		}
		for _, ddl := range batches {
			if !lp.Stats().Retraining {
				fail("a DDL batch did not overlap the retrain")
			}
			if _, err := lp.ApplyDDL(ddl); err != nil {
				fail("apply ddl: " + err.Error())
			}
		}
	}()
	wg.Wait()
	lp.Wait()
	for _, f := range failures {
		t.Error(f)
	}

	active := lp.Active().(*System)
	be, epoch := active.world.snapshot()
	if active.currentBackend() != be {
		t.Fatal("the active replica serves another backend than the world's newest")
	}
	stats := lp.Stats()
	if epoch != 2 || stats.CatalogEpoch != epoch || stats.CatalogApplies != 2 {
		t.Fatalf("world at catalog epoch %d, loop reports %d after %d applies, want 2/2/2", epoch, stats.CatalogEpoch, stats.CatalogApplies)
	}
	if stats.Retrains == 0 || stats.RetrainErrors != 0 {
		t.Fatalf("retrains %d, retrain errors %d: want at least one clean retrain", stats.Retrains, stats.RetrainErrors)
	}

	schema := sys.world.baseSchema()
	feedback := 0
	err = st.WAL().Replay(0, func(e store.WALEntry) error {
		switch e.Kind {
		case store.KindDDL:
			next, err := schema.Apply(e.DDL)
			schema = next
			return err
		case store.KindFeedback:
			feedback++
			for _, r := range e.Query.Tables {
				if _, ok := schema.Tables[r.Table]; !ok {
					t.Errorf("WAL seq %d: feedback for %s names %s, which the catalog dropped before it was journaled", e.Seq, e.Query.ID, r.Table)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if feedback == 0 || uint64(feedback) != stats.Recorded {
		t.Fatalf("journal holds %d feedback records, loop recorded %d", feedback, stats.Recorded)
	}
}
