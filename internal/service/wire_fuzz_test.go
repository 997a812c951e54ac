package service

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"github.com/foss-db/foss/internal/query"
)

// wireQueries decodes body as an optimize request under decodeBody's rules
// and converts its inline specs, query then queries, the way the optimize
// handler does: the queries toQuery accepted, and whether the body decoded.
func wireQueries(body []byte) ([]*query.Query, bool) {
	var req optimizeRequest
	if !decodeBody(httptest.NewRecorder(), httptest.NewRequest("POST", "/optimize", bytes.NewReader(body)), &req) {
		return nil, false
	}
	specs := req.Queries
	if req.Query != nil {
		specs = append(specs, *req.Query)
	}
	var qs []*query.Query
	for _, wq := range specs {
		if q, err := wq.toQuery(); err == nil {
			qs = append(qs, q)
		}
	}
	return qs, true
}

// FuzzWireQuery feeds arbitrary bytes to the optimize body's decoder and to
// toQuery. Nothing may panic; every query accepted passes Validate and names
// an alias for each table, so a served join order names its aliases; and the
// same bytes decode to the same fingerprints. Seeds are inline bodies of the
// shapes the handler takes, valid and not.
//
//	go test ./internal/service -run '^$' -fuzz FuzzWireQuery -fuzztime 10s
func FuzzWireQuery(f *testing.F) {
	for _, seed := range []string{
		`{"query": {"tables": [{"table": "title", "alias": "t"}], "joins": []}}`,
		`{"query": {"id": "q", "tables": [{"table": "title", "alias": "t"}, {"table": "movie_companies", "alias": "mc"}],
		  "joins": [{"la": "t", "lc": "id", "ra": "mc", "rc": "movie_id"}],
		  "filters": [{"alias": "t", "col": "production_year", "op": "between", "val": 1990, "hi": 2000}]}}`,
		`{"queries": [{"tables": [{"table": "a", "alias": "x"}], "joins": []}, {"tables": [{"table": "b", "alias": "x"}], "joins": [],
		  "filters": [{"alias": "x", "col": "c", "op": "in", "set": [1, 2]}]}], "execute": true}`,
		`{"query": {"tables": [{"table": "title", "alias": ""}], "joins": []}}`,
		`{"query": {"tables": [{"table": "t", "alias": "a"}, {"table": "t", "alias": "a"}], "joins": []}}`,
		`{"query": {"tables": [{"table": "t", "alias": "a"}], "joins": [{"la": "a", "lc": "x", "ra": "a", "rc": "y"}]}}`,
		`{"query": {"tables": [{"table": "t", "alias": "a"}], "joins": [], "filters": [{"alias": "a", "col": "c", "op": "like"}]}}`,
		`{"query_id": "1a", "query_ids": ["1b"], "unknown": 1}`,
		`{"query": {"tables": []}}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		qs, ok := wireQueries(body)
		for _, q := range qs {
			if err := q.Validate(); err != nil {
				t.Fatalf("toQuery accepted %+v, which Validate refuses: %v", q.Tables, err)
			}
			for _, tr := range q.Tables {
				if tr.Alias == "" || tr.Table == "" {
					t.Fatalf("toQuery accepted a table reference with an empty name: %+v", q.Tables)
				}
			}
		}
		again, okAgain := wireQueries(body)
		if okAgain != ok || len(again) != len(qs) {
			t.Fatalf("the same body decoded to %d queries (ok %v), then %d (ok %v)", len(qs), ok, len(again), okAgain)
		}
		for i, q := range qs {
			if q.Fingerprint() != again[i].Fingerprint() || q.ID != again[i].ID {
				t.Fatalf("query %d: the same body gave fingerprint %x id %q, then %x id %q",
					i, q.Fingerprint(), q.ID, again[i].Fingerprint(), again[i].ID)
			}
		}
	})
}
