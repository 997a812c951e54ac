package storage

import (
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
)

func smallDB(t *testing.T) *DB {
	t.Helper()
	s := catalog.NewSchema()
	s.AddTable(catalog.NewTable("t",
		catalog.Column{Name: "id", Indexed: true},
		catalog.Column{Name: "v"},
	))
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	db := NewDB(s)
	for i := 0; i < 100; i++ {
		db.Table("t").AppendRow(int64(i%10), int64(100-i))
	}
	db.BuildAllIndexes()
	return db
}

func TestAppendAndValue(t *testing.T) {
	db := smallDB(t)
	tbl := db.Table("t")
	if tbl.NumRows() != 100 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	if tbl.Value(0, 13) != 3 || tbl.Value(1, 0) != 100 {
		t.Fatal("Value broken")
	}
	if db.TotalRows() != 100 {
		t.Fatalf("TotalRows = %d", db.TotalRows())
	}
}

func TestHashIndexLookup(t *testing.T) {
	db := smallDB(t)
	tbl := db.Table("t")
	if !tbl.HasIndex(0) {
		t.Fatal("declared index missing")
	}
	if tbl.HasIndex(1) {
		t.Fatal("undeclared index present")
	}
	hits := tbl.Lookup(0, 7)
	if len(hits) != 10 {
		t.Fatalf("lookup(7) = %d rows, want 10", len(hits))
	}
	for _, r := range hits {
		if tbl.Value(0, r) != 7 {
			t.Fatal("lookup returned wrong row")
		}
	}
	if tbl.Lookup(0, 999) != nil && len(tbl.Lookup(0, 999)) != 0 {
		t.Fatal("missing key should return empty")
	}
	if tbl.Lookup(1, 0) != nil {
		t.Fatal("lookup on unindexed column should be nil")
	}
}

func TestAppendRowWidthMismatchPanics(t *testing.T) {
	db := smallDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	db.Table("t").AppendRow(1)
}

func TestUnknownTablePanics(t *testing.T) {
	db := smallDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown table")
		}
	}()
	db.Table("nope")
}
