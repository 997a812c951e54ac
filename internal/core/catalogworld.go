package core

// The catalog world is the live schema substrate shared by a blue/green
// replica pair: one versioned catalog, one storage DB, one statistics
// catalog, one backend — all rebuilt copy-on-write when a DDL batch lands.
// Both replicas point at the same world (Clone threads it through), so a
// single apply produces a single new backend that each replica then repoints
// to under its own runtime's exclusive section (ResyncCatalog). In-flight
// serves keep reading the immutable old generation; nothing is ever mutated
// in place.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/foss-db/foss/internal/backend"
	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/engine/stats"
	"github.com/foss-db/foss/internal/engine/storage"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/query"
)

// catalogStatsSeed seeds the deterministic full-scan statistics rebuild for
// tables a DDL batch touched. Unchanged tables keep their load-time stats
// objects by pointer, so pre-DDL plans are re-derived bit-identically.
const catalogStatsSeed = 1

// catalogWorld holds the live schema generation. All fields behind mu are
// replaced wholesale on apply, never mutated: a snapshot taken under the
// read lock stays internally consistent forever.
type catalogWorld struct {
	mu sync.RWMutex
	v  *catalog.Versioned
	db *storage.DB
	st *stats.Catalog
	be backend.Backend

	// cur publishes v's current schema for lock-free readers (CheckCatalog
	// runs twice per served query). apply stores it under mu, once the
	// generation it belongs to is complete.
	cur atomic.Pointer[catalog.Schema]

	// frozen marks a world whose backend was built over a database this
	// package cannot see (WithBackend over a foreign DB): reads work, DDL is
	// refused.
	frozen bool
}

// newCatalogWorld wraps the system's initial backend. When the backend's
// schema is not the workload DB's schema (an exotic WithBackend), the world
// comes up frozen: everything serves normally, ApplyDDL refuses.
func newCatalogWorld(db *storage.DB, st *stats.Catalog, be backend.Backend) *catalogWorld {
	frozen := db == nil || be.Schema() != db.Schema
	cw := &catalogWorld{
		v:      catalog.NewVersioned(be.Schema()),
		db:     db,
		st:     st,
		be:     be,
		frozen: frozen,
	}
	cw.cur.Store(cw.v.Schema())
	return cw
}

// baseSchema returns the immutable epoch-0 schema the world started from —
// the encoder's vocabulary base, shared by every replica over this world.
func (cw *catalogWorld) baseSchema() *catalog.Schema { return cw.v.Base() }

// snapshot returns the current generation: backend, schema, and epoch, all
// immutable.
func (cw *catalogWorld) snapshot() (backend.Backend, *catalog.Schema, uint64) {
	cw.mu.RLock()
	defer cw.mu.RUnlock()
	return cw.be, cw.v.Schema(), cw.v.Epoch()
}

// schema returns the current immutable schema snapshot.
func (cw *catalogWorld) schema() *catalog.Schema { return cw.cur.Load() }

// apply runs one DDL batch: new schema (copy-on-write), new DB (unchanged
// tables shared by pointer), new statistics (unchanged tables shared by
// pointer, touched tables rebuilt by a deterministic full scan), new backend
// over both. The batch is atomic — on error nothing is published.
func (cw *catalogWorld) apply(ddls []catalog.DDL) (uint64, error) {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.frozen {
		return 0, fmt.Errorf("core: backend was built over a database the catalog cannot rebuild: %w", fosserr.ErrBadConfig)
	}
	schema, epoch, err := cw.v.Apply(ddls)
	if err != nil {
		return 0, err
	}
	db := rebuildDB(cw.db, schema)
	st := rebuildStats(cw.st, cw.db, db)
	be, err := backend.New(cw.be.Name(), db, st)
	if err != nil {
		// Unreachable for the names the world was built with; keep the
		// invariant loud rather than silent.
		return 0, fmt.Errorf("core: rebuild backend after ddl: %w", err)
	}
	cw.db, cw.st, cw.be = db, st, be
	cw.cur.Store(schema)
	return epoch, nil
}

// rebuildDB materializes a storage DB for the evolved schema. Tables whose
// metadata pointer is unchanged are shared with the old DB (copy-on-write:
// the old generation keeps serving them untouched). Touched tables carry
// their column data over by name — DDL-added columns are deterministic
// zero-fill — and rebuild their indexes; DDL-added tables start empty.
func rebuildDB(old *storage.DB, schema *catalog.Schema) *storage.DB {
	db := &storage.DB{Schema: schema, Tables: make(map[string]*storage.Table, len(schema.Order))}
	for _, n := range schema.Order {
		meta := schema.Tables[n]
		if ot, ok := old.Tables[n]; ok && ot.Meta == meta {
			db.Tables[n] = ot
			continue
		}
		nt := storage.NewTable(meta)
		if ot, ok := old.Tables[n]; ok {
			rows := ot.NumRows()
			for ci, c := range meta.Columns {
				if oi := ot.Meta.ColIndex(c.Name); oi >= 0 {
					// Column slices are immutable post-load: sharing is safe.
					nt.Cols[ci] = ot.Cols[oi]
				} else {
					nt.Cols[ci] = make([]int64, rows)
				}
			}
		}
		nt.BuildIndexes()
		db.Tables[n] = nt
	}
	return db
}

// rebuildStats carries statistics over from the old catalog for tables the
// DDL batch left untouched (same *storage.Table pointer) and rebuilds the
// touched ones with a deterministic full scan.
func rebuildStats(old *stats.Catalog, oldDB, db *storage.DB) *stats.Catalog {
	cat := &stats.Catalog{Tables: make(map[string]*stats.TableStats, len(db.Schema.Order))}
	var changed []string
	for _, n := range db.Schema.Order {
		if ot, ok := oldDB.Tables[n]; ok && ot == db.Tables[n] {
			cat.Tables[n] = old.Tables[n]
			continue
		}
		changed = append(changed, n)
	}
	if len(changed) > 0 {
		sub := catalog.NewSchema()
		subDB := &storage.DB{Schema: sub, Tables: map[string]*storage.Table{}}
		for _, n := range changed {
			// TryAddTable cannot fail: names are unique within db.Schema.
			_ = sub.TryAddTable(db.Schema.Tables[n])
			subDB.Tables[n] = db.Tables[n]
		}
		fresh := stats.Build(subDB, 1.0, catalogStatsSeed)
		for _, n := range changed {
			cat.Tables[n] = fresh.Tables[n]
		}
	}
	return cat
}

// ApplyDDL applies a schema-evolution batch to this system's live catalog
// and repoints the system at the rebuilt backend under the runtime's
// exclusive section — the plan cache empties in the same section, so no
// plan chosen against the old schema can ever be served again. Returns the
// new catalog epoch.
//
// Under a live online loop, apply through service.Loop.ApplyDDL (the
// System.Online() handle) instead: the loop journals the batch and
// re-publishes the serving replica at a new epoch; a direct ApplyDDL does
// neither, so a warm restart would lose the batch and plan memory would
// outlive it.
func (s *System) ApplyDDL(ddls []catalog.DDL) (uint64, error) {
	epoch, err := s.world.apply(ddls)
	if err != nil {
		return 0, err
	}
	if err := s.ResyncCatalog(); err != nil {
		return 0, err
	}
	return epoch, nil
}

// ResyncCatalog repoints this system at the world's current backend if it
// serves another one. Idempotent — a system already current keeps its plan
// cache — and safe under concurrent serving: the repoint runs inside the
// runtime's exclusive section, like a weight load, and reads the world there,
// so of two racing resyncs the later one installs the newer generation.
func (s *System) ResyncCatalog() error {
	if be, _, _ := s.world.snapshot(); be == s.currentBackend() {
		return nil
	}
	return s.RT.Exclusive(func() error {
		be, schema, _ := s.world.snapshot()
		s.Backend = be
		for _, pl := range s.Planners {
			pl.Opt = be
		}
		s.Learner.Exec = be
		// Grow the shared encoder's vocabulary for DDL-added tables/columns —
		// deterministic, append-only, folds to the none bucket past the
		// reserved headroom (Config.CatalogHeadroom).
		s.Enc.Extend(schema)
		return nil
	})
}

// CatalogEpoch returns the live catalog's epoch: the count of DDL statements
// applied since the load-time schema. 0 until the first ApplyDDL.
func (s *System) CatalogEpoch() uint64 { return s.world.v.Epoch() }

// CatalogHash returns the canonical hash of the live schema.
func (s *System) CatalogHash() uint64 { return s.world.v.Hash() }

// CatalogLog returns the full applied-DDL log (load-time schema → current).
func (s *System) CatalogLog() []catalog.DDL { return s.world.v.Log() }

// CatalogSchema returns the live schema snapshot (immutable).
func (s *System) CatalogSchema() *catalog.Schema { return s.world.schema() }

// CheckCatalog reports whether every table the query references still exists
// in the live schema; a reference to a DDL-dropped table fails with
// fosserr.ErrCatalogStale. The serving loop gates requests (and replayed
// feedback) through this rather than letting the planner trip over a table
// the storage layer no longer has. A query already checked against this
// exact schema passes on one pointer comparison: the lookups run once per
// (query, schema generation).
func (s *System) CheckCatalog(q *query.Query) error { return checkSchema(s.world.schema(), q) }

// checkSchema fails with fosserr.ErrCatalogStale unless every table q
// references exists in schema.
func checkSchema(schema *catalog.Schema, q *query.Query) error {
	if q.CheckedAgainst(schema) {
		return nil
	}
	for _, t := range q.Tables {
		if _, ok := schema.Tables[t.Table]; !ok {
			return fmt.Errorf("core: query %s references table %q: %w", q.ID, t.Table, fosserr.ErrCatalogStale)
		}
	}
	q.MarkChecked(schema)
	return nil
}

// SyncCatalog brings the live catalog to exactly the given epoch by applying
// the missing suffix of the full DDL log — the warm-start half of schema
// durability: checkpoints carry (epoch, hash, log), and recovery replays the
// suffix before any weights load, so rebuilt plans re-derive against the
// same schema generation that produced them. A system already ahead of the
// checkpoint refuses with fosserr.ErrCatalogMismatch (the schema-evolution
// sibling of the backend-mismatch refusal); a hash divergence after replay
// refuses the same way.
func (s *System) SyncCatalog(epoch, hash uint64, log []catalog.DDL) error {
	cur := s.CatalogEpoch()
	if cur > epoch {
		return fmt.Errorf("core: live catalog at epoch %d, checkpoint at %d: %w", cur, epoch, fosserr.ErrCatalogMismatch)
	}
	if cur < epoch {
		if uint64(len(log)) != epoch {
			return fmt.Errorf("core: checkpoint catalog log has %d statements for epoch %d: %w",
				len(log), epoch, fosserr.ErrSnapshotCorrupt)
		}
		if _, err := s.ApplyDDL(log[cur:]); err != nil {
			return fmt.Errorf("core: re-apply catalog log: %w", err)
		}
	}
	if hash != 0 && s.CatalogHash() != hash {
		return fmt.Errorf("core: rebuilt catalog hash %#x != checkpoint %#x: %w",
			s.CatalogHash(), hash, fosserr.ErrCatalogMismatch)
	}
	return nil
}
