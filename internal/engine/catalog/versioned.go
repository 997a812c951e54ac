package catalog

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// DDLKind names one schema-evolution statement type.
type DDLKind string

// The supported DDL statement kinds.
const (
	DDLAddTable  DDLKind = "add-table"
	DDLDropTable DDLKind = "drop-table"
	DDLAddIndex  DDLKind = "add-index"
	DDLDropIndex DDLKind = "drop-index"
	DDLAddColumn DDLKind = "add-column"
)

// DDL is one schema-evolution statement. The struct is flat and
// gob/JSON-encodable so statements can travel the wire (the HTTP catalog
// endpoint) and the WAL (KindDDL records) unchanged.
type DDL struct {
	Kind    DDLKind    `json:"kind"`
	Table   string     `json:"table"`
	Column  string     `json:"column,omitempty"`  // index/column ops
	Type    ColumnType `json:"type,omitempty"`    // add-column
	Indexed bool       `json:"indexed,omitempty"` // add-column: create its index too
	Columns []Column   `json:"columns,omitempty"` // add-table
}

func (d DDL) String() string {
	switch d.Kind {
	case DDLAddTable:
		return fmt.Sprintf("add-table %s (%d cols)", d.Table, len(d.Columns))
	case DDLAddColumn:
		return fmt.Sprintf("add-column %s.%s", d.Table, d.Column)
	default:
		return fmt.Sprintf("%s %s.%s", d.Kind, d.Table, d.Column)
	}
}

// Clone returns a deep copy of the table metadata.
func (t *Table) Clone() *Table {
	c := &Table{
		Name:    t.Name,
		Columns: append([]Column(nil), t.Columns...),
		colIdx:  make(map[string]int, len(t.colIdx)),
	}
	for k, v := range t.colIdx {
		c.colIdx[k] = v
	}
	return c
}

// Clone returns a copy-on-write clone of the schema: the Tables map, Order
// slice, and FK slice are fresh, but the *Table values are shared with the
// receiver. Apply clones individual tables before mutating them, so a clone
// never aliases mutable state with its parent.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Tables: make(map[string]*Table, len(s.Tables)),
		Order:  append([]string(nil), s.Order...),
		FKs:    append([]ForeignKey(nil), s.FKs...),
	}
	for _, n := range s.Order {
		c.Tables[n] = s.Tables[n]
	}
	return c
}

// Apply returns a new schema with the DDL batch applied, leaving the
// receiver untouched (copy-on-write: unmodified tables are shared by
// pointer). The batch is atomic — any invalid statement rejects the whole
// batch with an error and no new schema. Apply never panics: it is the
// wire-facing sibling of the panicking builder methods.
func (s *Schema) Apply(ddls []DDL) (*Schema, error) {
	next := s.Clone()
	for i, d := range ddls {
		if err := next.applyOne(d); err != nil {
			return nil, fmt.Errorf("catalog: ddl %d (%s): %w", i, d, err)
		}
	}
	if err := next.Validate(); err != nil {
		return nil, err
	}
	return next, nil
}

func (s *Schema) applyOne(d DDL) error {
	if d.Table == "" {
		return fmt.Errorf("missing table name")
	}
	switch d.Kind {
	case DDLAddTable:
		if len(d.Columns) == 0 {
			return fmt.Errorf("add-table needs at least one column")
		}
		t, err := NewTableE(d.Table, d.Columns...)
		if err != nil {
			return err
		}
		return s.TryAddTable(t)
	case DDLDropTable:
		if _, ok := s.Tables[d.Table]; !ok {
			return fmt.Errorf("unknown table %q", d.Table)
		}
		delete(s.Tables, d.Table)
		order := s.Order[:0:0]
		for _, n := range s.Order {
			if n != d.Table {
				order = append(order, n)
			}
		}
		s.Order = order
		fks := s.FKs[:0:0]
		for _, fk := range s.FKs {
			if fk.FromTable != d.Table && fk.ToTable != d.Table {
				fks = append(fks, fk)
			}
		}
		s.FKs = fks
		return nil
	case DDLAddIndex, DDLDropIndex:
		t, ok := s.Tables[d.Table]
		if !ok {
			return fmt.Errorf("unknown table %q", d.Table)
		}
		ci := t.ColIndex(d.Column)
		if ci < 0 {
			return fmt.Errorf("unknown column %s.%s", d.Table, d.Column)
		}
		want := d.Kind == DDLAddIndex
		if t.Columns[ci].Indexed == want {
			return fmt.Errorf("column %s.%s already at indexed=%v", d.Table, d.Column, want)
		}
		ct := t.Clone() // COW: never mutate a table shared with the parent schema
		ct.Columns[ci].Indexed = want
		s.Tables[d.Table] = ct
		return nil
	case DDLAddColumn:
		t, ok := s.Tables[d.Table]
		if !ok {
			return fmt.Errorf("unknown table %q", d.Table)
		}
		if d.Column == "" {
			return fmt.Errorf("missing column name")
		}
		if t.HasColumn(d.Column) {
			return fmt.Errorf("duplicate column %s.%s", d.Table, d.Column)
		}
		ct := t.Clone()
		ct.colIdx[d.Column] = len(ct.Columns)
		ct.Columns = append(ct.Columns, Column{Name: d.Column, Type: d.Type, Indexed: d.Indexed})
		s.Tables[d.Table] = ct
		return nil
	default:
		return fmt.Errorf("unknown ddl kind %q", d.Kind)
	}
}

// Hash returns a deterministic canonical hash of the schema content: table
// order, every column's name/type/index flag, and the FK list. Two schemas
// with identical content hash identically across processes and restarts
// (FNV-1a over a canonical serialization; iteration goes through Order, never
// the Tables map).
func (s *Schema) Hash() uint64 {
	h := fnv.New64a()
	for _, n := range s.Order {
		t := s.Tables[n]
		fmt.Fprintf(h, "t|%s|", n)
		for _, c := range t.Columns {
			fmt.Fprintf(h, "c|%s|%d|%v|", c.Name, c.Type, c.Indexed)
		}
	}
	for _, fk := range s.FKs {
		fmt.Fprintf(h, "f|%s.%s>%s.%s|", fk.FromTable, fk.FromCol, fk.ToTable, fk.ToCol)
	}
	return h.Sum64()
}

// Versioned is a live catalog: an immutable base schema plus the ordered log
// of DDL statements applied since. Epoch counts applied statements, so a
// checkpoint carrying an epoch identifies an exact schema (base + log
// prefix), and replicas converge by replaying the log suffix. Reads return
// immutable snapshots; Apply publishes a new copy-on-write schema, so
// in-flight readers keep planning against the schema they started with.
type Versioned struct {
	mu     sync.RWMutex
	base   *Schema
	schema *Schema
	epoch  uint64
	log    []DDL
}

// NewVersioned wraps a base schema at epoch 0. The base is treated as
// immutable from here on.
func NewVersioned(base *Schema) *Versioned {
	return &Versioned{base: base, schema: base}
}

// Base returns the immutable epoch-0 schema the catalog started from. It
// never changes after construction, so no lock is taken.
func (v *Versioned) Base() *Schema { return v.base }

// Schema returns the current schema snapshot (immutable).
func (v *Versioned) Schema() *Schema {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.schema
}

// Epoch returns the catalog epoch: the count of DDL statements applied since
// the base schema. Monotonically increasing.
func (v *Versioned) Epoch() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.epoch
}

// Hash returns the canonical hash of the current schema.
func (v *Versioned) Hash() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.schema.Hash()
}

// Log returns a copy of the applied-DDL log (base → current schema).
func (v *Versioned) Log() []DDL {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return append([]DDL(nil), v.log...)
}

// Apply applies a DDL batch copy-on-write and, on success, publishes the new
// schema and bumps the epoch by the batch length. Returns the new schema and
// epoch. The batch is atomic: on error nothing is published.
func (v *Versioned) Apply(ddls []DDL) (*Schema, uint64, error) {
	if len(ddls) == 0 {
		return nil, 0, fmt.Errorf("catalog: empty ddl batch")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	next, err := v.schema.Apply(ddls)
	if err != nil {
		return nil, 0, err
	}
	v.schema = next
	v.epoch += uint64(len(ddls))
	v.log = append(v.log, ddls...)
	return next, v.epoch, nil
}
