package shard

// Follower integration: a follower router boots from the leader's
// checkpoint over the leader's wire surface, serves the leader's exact
// model, refuses writes, tails new generations, and relays feedback back to
// the leader.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/service"
	"github.com/foss-db/foss/internal/store"
)

// followerConfig derives a follower router config from a leader's.
func followerConfig(leaderAddr string) Config {
	cfg := tinyRouterConfig("")
	cfg.Role = "follower"
	cfg.LeaderAddr = leaderAddr
	cfg.ReplInterval = 30 * time.Millisecond
	cfg.ReplBootTimeout = 30 * time.Second
	return cfg
}

// leaderFleet boots a durable one-tenant ("acme") leader behind its HTTP
// surface and returns it with its base URL.
func leaderFleet(t *testing.T) (*Router, string) {
	t.Helper()
	r, err := NewRouter(context.Background(), tinyRouterConfig(t.TempDir()), []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(service.NewMultiHTTPServer(r))
	t.Cleanup(func() {
		srv.Close()
		r.Close(context.Background())
	})
	return r, srv.URL
}

// TestFollowerSharedDirReplication: a follower replicating the leader's
// state directory over its HTTP surface — identical serving at boot, 403
// with the leader's address on writes only a leader takes, and hot-swap of
// a later generation within the tail interval.
func TestFollowerSharedDirReplication(t *testing.T) {
	leaderR, leaderAddr := leaderFleet(t)
	leadSh, _ := leaderR.Get("acme")
	q := leadSh.W.Test[0]
	leadRes, err := leadSh.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}

	folR, err := NewRouter(context.Background(), followerConfig(leaderAddr), []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer folR.Close(context.Background())
	folSh, _ := folR.Get("acme")
	if folSh.Tailer == nil || folSh.Store != nil || folSh.Recovery.Recovered {
		t.Fatalf("follower shape wrong: tailer=%v store=%v recovery=%+v", folSh.Tailer, folSh.Store, folSh.Recovery)
	}

	// Same model, same generation, same decision.
	folRes, err := folSh.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if folRes.Eval.ICP.Key() != leadRes.Eval.ICP.Key() || folRes.Epoch != leadRes.Epoch {
		t.Fatalf("follower serves (%s, epoch %d), leader (%s, epoch %d)",
			folRes.Eval.ICP.Key(), folRes.Epoch, leadRes.Eval.ICP.Key(), leadRes.Epoch)
	}

	// A checkpoint only the leader can take is refused with its address.
	ts := httptest.NewServer(service.NewMultiHTTPServer(folR))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/t/acme/checkpoint", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var refusal map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&refusal); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden || refusal["leader"] != leaderAddr {
		t.Fatalf("checkpoint on follower: %d %v, want 403 naming %s", resp.StatusCode, refusal, leaderAddr)
	}

	// The leader publishes a new generation; the tailer hot-swaps it.
	model, err := leadSh.Sys.Save()
	if err != nil {
		t.Fatal(err)
	}
	next := leadRes.Epoch + 1
	if _, err := leadSh.Store.WriteCheckpoint(leadSh.Spec.Backend, store.Checkpoint{Model: model, Epoch: next, WALSeq: 999}); err != nil {
		t.Fatal(err)
	}
	// Wait on the tailer's own stats, not the online loop's epoch: the
	// epoch bumps inside the apply callback, a beat before the tailer
	// stamps LastAppliedEpoch/AppliedSwaps.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := folSh.Tailer.Stats()
		if st.LastAppliedEpoch == next && st.AppliedSwaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never applied epoch %d (stats %+v)", next, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := folSh.Sys.Online().Epoch(); got != next {
		t.Fatalf("follower epoch %d after applied swap, want %d", got, next)
	}
}

// TestFollowerCatalogReplication: a DDL applied on the leader reaches the
// follower through ordinary checkpoint replication — the post-DDL generation
// checkpoints immediately, the tailer applies it, and the follower's live
// catalog lands on the leader's epoch without a restart.
func TestFollowerCatalogReplication(t *testing.T) {
	leaderR, leaderAddr := leaderFleet(t)
	folR, err := NewRouter(context.Background(), followerConfig(leaderAddr), []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer folR.Close(context.Background())
	leadSh, _ := leaderR.Get("acme")
	folSh, _ := folR.Get("acme")
	if got := folSh.Sys.Online().CatalogEpoch(); got != 0 {
		t.Fatalf("follower boots at catalog epoch %d, want 0", got)
	}

	epoch, err := leadSh.Sys.Online().ApplyDDL([]catalog.DDL{
		{Kind: catalog.DDLAddTable, Table: "repl_evolved", Columns: []catalog.Column{{Name: "id", Indexed: true}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 1 {
		t.Fatalf("leader catalog epoch %d after one DDL, want 1", epoch)
	}

	deadline := time.Now().Add(10 * time.Second)
	for folSh.Sys.Online().CatalogEpoch() != epoch {
		if time.Now().After(deadline) {
			t.Fatalf("follower catalog epoch stuck at %d, want %d (tailer %+v)",
				folSh.Sys.Online().CatalogEpoch(), epoch, folSh.Tailer.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The evolved catalog must not disturb serving: the follower still
	// answers the steady workload at the replicated generation.
	q := folSh.W.Test[0]
	res, err := folSh.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval == nil {
		t.Fatal("follower served no plan after catalog replication")
	}
}

// TestFollowerHTTPReplicationAndForwarding: follower with no filesystem
// access replicates over the leader's /v1/t/{tenant}/repl endpoints, and
// /v1/feedback on the follower lands in the leader's learning loop.
func TestFollowerHTTPReplicationAndForwarding(t *testing.T) {
	leaderR, leaderAddr := leaderFleet(t)
	folR, err := NewRouter(context.Background(), followerConfig(leaderAddr), []TenantSpec{{Name: "acme"}})
	if err != nil {
		t.Fatal(err)
	}
	defer folR.Close(context.Background())
	folSh, _ := folR.Get("acme")
	leadSh, _ := leaderR.Get("acme")

	q := folSh.W.Test[0]
	folRes, err := folSh.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	leadRes, err := leadSh.Serve(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if folRes.Eval.ICP.Key() != leadRes.Eval.ICP.Key() {
		t.Fatalf("follower key %s != leader key %s", folRes.Eval.ICP.Key(), leadRes.Eval.ICP.Key())
	}

	// Serve on the follower's wire surface, report latency there, observe
	// the record on the leader.
	ts := httptest.NewServer(service.NewMultiHTTPServer(folR))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/t/acme/optimize", "application/json",
		strings.NewReader(`{"query_id": "`+q.ID+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	var row struct {
		ServeID string `json:"serve_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&row); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if row.ServeID == "" {
		t.Fatal("no serve_id from follower optimize")
	}
	before := leadSh.Sys.OnlineStats().Recorded
	resp2, err := http.Post(ts.URL+"/v1/t/acme/feedback", "application/json",
		strings.NewReader(`{"serve_id": "`+row.ServeID+`", "latency_ms": 7.5}`))
	if err != nil {
		t.Fatal(err)
	}
	var fb map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&fb); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || fb["forwarded"] != true {
		t.Fatalf("forwarded feedback: %d %v", resp2.StatusCode, fb)
	}
	if got := leadSh.Sys.OnlineStats().Recorded; got != before+1 {
		t.Fatalf("leader Recorded = %d, want %d", got, before+1)
	}
}

// TestFollowerWithStateDirRefused: a follower holds no state, so a follower
// configured with a state directory is refused at boot, naming both flags,
// before any shard boots.
func TestFollowerWithStateDirRefused(t *testing.T) {
	cfg := followerConfig("http://127.0.0.1:1")
	cfg.StateDir = t.TempDir()
	_, err := NewRouter(context.Background(), cfg, []TenantSpec{{Name: "acme"}})
	if !errors.Is(err, fosserr.ErrBadConfig) {
		t.Fatalf("follower with a state dir: err = %v, want ErrBadConfig", err)
	}
	for _, flag := range []string{"-role follower", "-state-dir"} {
		if !strings.Contains(err.Error(), flag) {
			t.Fatalf("refusal %q does not name %s", err, flag)
		}
	}
}
