package catalog_test

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/workload"
)

// jobSchema is the JOB workload's load-time schema, built once per process.
var jobSchema = sync.OnceValues(func() (*catalog.Schema, error) {
	w, err := workload.Load("job", workload.Options{Seed: 1, Scale: 0.05})
	if err != nil {
		return nil, err
	}
	return w.DB.Schema, nil
})

// applyChecked applies one batch to v and checks the outcome: a refused
// batch leaves the epoch, hash, log and schema pointer as they were; an
// accepted one advances the epoch by the batch length, appends the batch to
// the log, and publishes a schema that validates and lists each of its
// tables once.
func applyChecked(t *testing.T, v *catalog.Versioned, batch []catalog.DDL) {
	t.Helper()
	epoch, hash, log, schema := v.Epoch(), v.Hash(), v.Log(), v.Schema()
	next, got, err := v.Apply(batch)
	if err != nil {
		if v.Epoch() != epoch || v.Hash() != hash || !reflect.DeepEqual(v.Log(), log) || v.Schema() != schema {
			t.Fatalf("refused batch %v (%v) moved the catalog", batch, err)
		}
		return
	}
	if got != epoch+uint64(len(batch)) || v.Epoch() != got {
		t.Fatalf("accepted batch of %d at epoch %d: Apply says %d, Epoch %d", len(batch), epoch, got, v.Epoch())
	}
	if v.Schema() != next || next == schema {
		t.Fatal("accepted batch did not publish a new schema")
	}
	if want := append(log, batch...); !reflect.DeepEqual(v.Log(), want) {
		t.Fatalf("log after accepted batch = %v, want %v", v.Log(), want)
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("accepted batch %v published a schema that does not validate: %v", batch, err)
	}
	if len(next.Order) != len(next.Tables) {
		t.Fatalf("accepted batch %v: %d tables in order, %d in the map", batch, len(next.Order), len(next.Tables))
	}
	for _, n := range next.Order {
		if next.Tables[n] == nil {
			t.Fatalf("accepted batch %v: ordered table %q missing from the map", batch, n)
		}
	}
}

// FuzzDDLBatch decodes arbitrary bytes as a DDL batch, the shape the catalog
// endpoint takes, and applies it twice to a JOB schema's versioned catalog.
// Nothing may panic; a refused batch moves nothing; an accepted batch
// advances the epoch by its length and validates; and a fresh catalog
// replaying the log reaches the same hash. Seeds cover every statement kind,
// valid and not.
//
//	go test ./internal/engine/catalog -run '^$' -fuzz FuzzDDLBatch -fuzztime 10s
func FuzzDDLBatch(f *testing.F) {
	for _, seed := range []string{
		`[{"kind": "add-table", "table": "evolved", "columns": [{"Name": "id", "Indexed": true}, {"Name": "v"}]}]`,
		`[{"kind": "drop-table", "table": "info_type"}]`,
		`[{"kind": "drop-index", "table": "title", "column": "kind_id"}, {"kind": "add-index", "table": "title", "column": "production_year"}]`,
		`[{"kind": "add-column", "table": "name", "column": "age", "type": 1, "indexed": true}]`,
		`[{"kind": "add-index", "table": "title", "column": "kind_id"}]`,
		`[{"kind": "drop-table", "table": "title"}, {"kind": "drop-table", "table": "title"}]`,
		`[{"kind": "add-table", "table": "t", "columns": [{"Name": "a"}, {"Name": "a"}]}]`,
		`[{"kind": "add-table", "table": "keyword", "columns": [{"Name": "id"}]}]`,
		`[{"kind": "rename-table", "table": "title"}]`,
		`[{"kind": "add-column", "table": "", "column": "x"}]`,
		`[]`,
		`[{`,
	} {
		f.Add([]byte(seed))
	}
	base, err := jobSchema()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var batch []catalog.DDL
		if json.Unmarshal(body, &batch) != nil {
			return
		}
		v := catalog.NewVersioned(base)
		applyChecked(t, v, batch)
		applyChecked(t, v, batch)

		replay := catalog.NewVersioned(base)
		if log := v.Log(); len(log) > 0 {
			if _, _, err := replay.Apply(log); err != nil {
				t.Fatalf("replaying the log %v: %v", log, err)
			}
		}
		if replay.Hash() != v.Hash() || replay.Epoch() != v.Epoch() {
			t.Fatalf("replayed log reaches hash %016x at epoch %d, live %016x at %d", replay.Hash(), replay.Epoch(), v.Hash(), v.Epoch())
		}
	})
}
