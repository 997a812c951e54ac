package catalog

import (
	"fmt"
	"testing"
)

func baseSchema() *Schema {
	s := NewSchema()
	s.AddTable(NewTable("users", Column{Name: "id", Indexed: true}, Column{Name: "org"}))
	s.AddTable(NewTable("orders", Column{Name: "id", Indexed: true}, Column{Name: "user_id", Indexed: true}))
	s.AddFK("orders", "user_id", "users", "id")
	return s
}

func TestApplyCopyOnWrite(t *testing.T) {
	base := baseSchema()
	baseHash := base.Hash()
	next, err := base.Apply([]DDL{
		{Kind: DDLAddTable, Table: "events", Columns: []Column{{Name: "id", Indexed: true}, {Name: "user_id"}}},
		{Kind: DDLAddIndex, Table: "events", Column: "user_id"},
		{Kind: DDLDropIndex, Table: "orders", Column: "user_id"},
		{Kind: DDLAddColumn, Table: "users", Column: "region", Indexed: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The base must be untouched (COW), byte for byte.
	if base.Hash() != baseHash {
		t.Fatal("Apply mutated the base schema")
	}
	if len(base.Order) != 2 || base.Tables["users"].HasColumn("region") {
		t.Fatal("Apply mutated base tables")
	}
	if base.Tables["orders"].Columns[1].Indexed != true {
		t.Fatal("Apply mutated a shared table in place")
	}
	// The derived schema carries every change.
	if len(next.Order) != 3 || next.Order[2] != "events" {
		t.Fatalf("Order = %v", next.Order)
	}
	if !next.Tables["events"].Columns[1].Indexed {
		t.Fatal("add-index on events.user_id lost")
	}
	if next.Tables["orders"].Columns[1].Indexed {
		t.Fatal("drop-index on orders.user_id lost")
	}
	ci := next.Tables["users"].ColIndex("region")
	if ci != 2 || !next.Tables["users"].Columns[ci].Indexed {
		t.Fatal("add-column users.region lost")
	}
	// Unmodified structure is shared by pointer (the point of COW).
	if next.Tables["users"] == base.Tables["users"] {
		t.Fatal("modified table should have been cloned")
	}
}

func TestApplySharesUnmodifiedTables(t *testing.T) {
	base := baseSchema()
	next, err := base.Apply([]DDL{{Kind: DDLDropIndex, Table: "orders", Column: "user_id"}})
	if err != nil {
		t.Fatal(err)
	}
	if next.Tables["users"] != base.Tables["users"] {
		t.Fatal("untouched table should be shared by pointer")
	}
	if next.Tables["orders"] == base.Tables["orders"] {
		t.Fatal("touched table must be a clone")
	}
}

func TestApplyRejectsBadBatchAtomically(t *testing.T) {
	base := baseSchema()
	for _, ddls := range [][]DDL{
		{{Kind: DDLAddTable, Table: "users", Columns: []Column{{Name: "id"}}}},
		{{Kind: DDLAddTable, Table: "t", Columns: []Column{{Name: "a"}, {Name: "a"}}}},
		{{Kind: DDLDropTable, Table: "nope"}},
		{{Kind: DDLAddIndex, Table: "users", Column: "nope"}},
		{{Kind: DDLAddIndex, Table: "users", Column: "id"}},   // already indexed
		{{Kind: DDLDropIndex, Table: "users", Column: "org"}}, // not indexed
		{{Kind: DDLAddColumn, Table: "users", Column: "id"}},
		{{Kind: DDLAddColumn, Table: "nope", Column: "x"}},
		{{Kind: "rename-table", Table: "users"}},
		{{Kind: DDLAddTable, Table: "ok", Columns: []Column{{Name: "id"}}}, {Kind: DDLDropTable, Table: "missing"}},
	} {
		if _, err := base.Apply(ddls); err == nil {
			t.Fatalf("bad batch %v accepted", ddls)
		}
	}
	// Atomicity: the failing second statement above must not leak the first.
	if _, ok := base.Tables["ok"]; ok {
		t.Fatal("failed batch leaked a table into the base")
	}
}

func TestDropTableRemovesFKs(t *testing.T) {
	base := baseSchema()
	next, err := base.Apply([]DDL{{Kind: DDLDropTable, Table: "users"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(next.FKs) != 0 {
		t.Fatalf("FKs touching a dropped table must go with it: %v", next.FKs)
	}
	if err := next.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHashCanonical(t *testing.T) {
	a, b := baseSchema(), baseSchema()
	if a.Hash() != b.Hash() {
		t.Fatal("identical schemas must hash identically")
	}
	// Every dimension of content must move the hash.
	muts := [][]DDL{
		{{Kind: DDLAddTable, Table: "t", Columns: []Column{{Name: "id"}}}},
		{{Kind: DDLDropTable, Table: "orders"}},
		{{Kind: DDLAddIndex, Table: "users", Column: "org"}},
		{{Kind: DDLDropIndex, Table: "orders", Column: "user_id"}},
		{{Kind: DDLAddColumn, Table: "users", Column: "extra"}},
	}
	seen := map[uint64]bool{a.Hash(): true}
	for _, m := range muts {
		next, err := a.Apply(m)
		if err != nil {
			t.Fatal(err)
		}
		h := next.Hash()
		if seen[h] {
			t.Fatalf("mutation %v did not change the hash", m)
		}
		seen[h] = true
	}
}

func TestVersionedEpochAndLog(t *testing.T) {
	v := NewVersioned(baseSchema())
	if v.Epoch() != 0 {
		t.Fatalf("fresh catalog epoch = %d", v.Epoch())
	}
	h0 := v.Hash()
	_, ep, err := v.Apply([]DDL{
		{Kind: DDLDropIndex, Table: "orders", Column: "user_id"},
		{Kind: DDLAddColumn, Table: "users", Column: "region"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if ep != 2 || v.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2 (one per statement)", ep)
	}
	if v.Hash() == h0 {
		t.Fatal("hash must move with the schema")
	}
	if _, _, err := v.Apply([]DDL{{Kind: DDLDropTable, Table: "nope"}}); err == nil {
		t.Fatal("bad batch accepted")
	}
	if v.Epoch() != 2 {
		t.Fatal("failed apply must not bump the epoch")
	}
	if _, _, err := v.Apply(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if got := len(v.Log()); got != 2 {
		t.Fatalf("log length = %d", got)
	}
	// Replaying the log over a fresh base converges to the same schema.
	replayed, err := baseSchema().Apply(v.Log())
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Hash() != v.Hash() {
		t.Fatal("log replay did not converge to the live schema")
	}
}

func TestErrorConstructors(t *testing.T) {
	if _, err := NewTableE("t", Column{Name: "a"}, Column{Name: "a"}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := NewTableE("", Column{Name: "a"}); err == nil {
		t.Fatal("empty table name accepted")
	}
	if _, err := NewTableE("t", Column{Name: ""}); err == nil {
		t.Fatal("empty column name accepted")
	}
	s := NewSchema()
	tab, err := NewTableE("t", Column{Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.TryAddTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := s.TryAddTable(tab); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestVersionedConcurrentReaders(t *testing.T) {
	v := NewVersioned(baseSchema())
	done := make(chan error, 4)
	for r := 0; r < 3; r++ {
		go func() {
			var err error
			for i := 0; i < 200; i++ {
				s := v.Schema()
				// Snapshot coherence: whatever epoch we observe, the snapshot
				// itself must be internally consistent.
				if e := s.Validate(); e != nil {
					err = e
					break
				}
				_ = s.Hash()
			}
			done <- err
		}()
	}
	go func() {
		var err error
		for i := 0; i < 50; i++ {
			if _, _, e := v.Apply([]DDL{{Kind: DDLAddTable, Table: fmt.Sprintf("t%d", i), Columns: []Column{{Name: "id"}}}}); e != nil {
				err = e
				break
			}
		}
		done <- err
	}()
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if v.Epoch() != 50 {
		t.Fatalf("epoch = %d", v.Epoch())
	}
}
