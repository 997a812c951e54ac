package core

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
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
