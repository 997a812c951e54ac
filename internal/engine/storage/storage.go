// Package storage is a tiny in-memory column store: tables hold one int64
// slice per column, with an optional hash index on declared columns. It is
// the substrate both the executor (true cardinalities) and the statistics
// builder (estimates) read from.
package storage

import (
	"fmt"

	"github.com/foss-db/foss/internal/engine/catalog"
)

// Table holds the rows of one relation, column-major.
type Table struct {
	Meta *catalog.Table
	Cols [][]int64

	hashIdx map[int]map[int64][]int32
}

// NewTable allocates an empty table for the given metadata.
func NewTable(meta *catalog.Table) *Table {
	return &Table{
		Meta:    meta,
		Cols:    make([][]int64, len(meta.Columns)),
		hashIdx: map[int]map[int64][]int32{},
	}
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0])
}

// AppendRow adds one row; the number of values must match the column count.
func (t *Table) AppendRow(vals ...int64) {
	if len(vals) != len(t.Cols) {
		panic(fmt.Sprintf("storage: row width %d != %d for table %s", len(vals), len(t.Cols), t.Meta.Name))
	}
	for i, v := range vals {
		t.Cols[i] = append(t.Cols[i], v)
	}
}

// BuildIndexes constructs a hash index for every column whose
// catalog metadata declares Indexed. Call once after loading.
func (t *Table) BuildIndexes() {
	for i, c := range t.Meta.Columns {
		if c.Indexed {
			t.buildIndex(i)
		}
	}
}

func (t *Table) buildIndex(col int) {
	h := make(map[int64][]int32, t.NumRows())
	for r, v := range t.Cols[col] {
		h[v] = append(h[v], int32(r))
	}
	t.hashIdx[col] = h
}

// HasIndex reports whether column col carries an index.
func (t *Table) HasIndex(col int) bool {
	_, ok := t.hashIdx[col]
	return ok
}

// Lookup returns the row ids whose column equals v (nil if no index).
func (t *Table) Lookup(col int, v int64) []int32 {
	idx, ok := t.hashIdx[col]
	if !ok {
		return nil
	}
	return idx[v]
}

// Value returns the value of column col at row r.
func (t *Table) Value(col int, r int32) int64 { return t.Cols[col][r] }

// DB is a set of loaded tables under one schema.
type DB struct {
	Schema *catalog.Schema
	Tables map[string]*Table
}

// NewDB allocates empty tables for every table in the schema.
func NewDB(schema *catalog.Schema) *DB {
	db := &DB{Schema: schema, Tables: map[string]*Table{}}
	for _, n := range schema.Order {
		db.Tables[n] = NewTable(schema.Tables[n])
	}
	return db
}

// Table returns the named table or panics (tables exist for every schema
// entry by construction).
func (db *DB) Table(name string) *Table {
	t, ok := db.Tables[name]
	if !ok {
		panic(fmt.Sprintf("storage: unknown table %q", name))
	}
	return t
}

// BuildAllIndexes builds indexes on every declared-indexed column.
func (db *DB) BuildAllIndexes() {
	for _, t := range db.Tables {
		t.BuildIndexes()
	}
}

// TotalRows returns the sum of row counts over all tables.
func (db *DB) TotalRows() int {
	n := 0
	for _, t := range db.Tables {
		n += t.NumRows()
	}
	return n
}
