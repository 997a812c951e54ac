package service

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/foss-db/foss/internal/repl"
	"github.com/foss-db/foss/internal/store"
)

// newFollowerFixture serves a follower loop (never trains, no store) as a
// one-tenant fleet, resolving query ids with resolveQ, and returns the
// tenant's URL prefix.
func newFollowerFixture(t *testing.T, opts HTTPOptions) (string, *Loop) {
	t.Helper()
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	cfg.Follower = true
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	opts.Resolve = resolveQ
	_, base := serveFleet(t, NewHTTPServer(lp, opts))
	return base, lp
}

// TestFollowerWriteEndpointsRefuse: every write surface on a follower
// answers 403 with the leader's address in the body; read surfaces serve.
func TestFollowerWriteEndpointsRefuse(t *testing.T) {
	base, _ := newFollowerFixture(t, HTTPOptions{LeaderAddr: "http://leader:8475"})

	writes := []struct{ path, body string }{
		{"/feedback", `{"serve_id": "s1", "latency_ms": 5}`},
		{"/checkpoint", `{}`},
		{"/optimize", `{"query_id": "q1", "execute": true}`},
	}
	for _, c := range writes {
		code, out := postJSON(t, base+c.path, c.body)
		if code != http.StatusForbidden {
			t.Fatalf("%s on follower: %d %v", c.path, code, out)
		}
		if out["leader"] != "http://leader:8475" {
			t.Fatalf("%s refusal names no leader: %v", c.path, out)
		}
	}
	// A follower cannot be a replication source either (it has no store).
	for _, path := range []string{"/repl/manifest", "/repl/checkpoint/x"} {
		if code, out := getJSON(t, base+path); code != http.StatusForbidden {
			t.Fatalf("%s on follower: %d %v", path, code, out)
		}
	}

	// Reads serve normally: plain optimize, stats, explain, metrics.
	code, out := postJSON(t, base+"/optimize", `{"query_id": "q1"}`)
	if code != http.StatusOK {
		t.Fatalf("follower optimize: %d %v", code, out)
	}
	serveID, _ := out["serve_id"].(string)
	if code, _ := getJSON(t, base+"/stats"); code != http.StatusOK {
		t.Fatalf("follower stats: %d", code)
	}
	if code, _ := getJSON(t, base+"/explain/"+serveID); code != http.StatusOK {
		t.Fatalf("follower explain: %d", code)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("follower metrics: %v %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

// TestFollowerFeedbackForwarding: feedback on a follower with a forwarder
// is relayed to the leader in durable identity form and recorded there; a
// dead leader turns the relay into a 502.
func TestFollowerFeedbackForwarding(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	leader, leaderBase := serveFleet(t, NewHTTPServer(New(cfg, newFake("blue"), nil), HTTPOptions{Resolve: resolveQ}))

	base, _ := newFollowerFixture(t, HTTPOptions{
		LeaderAddr:      leader.URL,
		ForwardFeedback: NewFeedbackForwarder(leaderBase),
	})

	code, out := postJSON(t, base+"/optimize", `{"query_id": "q7"}`)
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %v", code, out)
	}
	serveID := out["serve_id"].(string)
	code, out = postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 12.5}`)
	if code != http.StatusOK || out["forwarded"] != true {
		t.Fatalf("forwarded feedback: %d %v", code, out)
	}
	if _, st := getJSON(t, leaderBase+"/stats"); st["stats"].(map[string]any)["Recorded"] != float64(1) {
		t.Fatalf("leader did not record forwarded feedback: %v", st["stats"])
	}
	// Duplicate feedback for the same serve stays a local 404 — the slot
	// was consumed by the successful forward.
	if code, _ := postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 12.5}`); code != http.StatusNotFound {
		t.Fatalf("duplicate forwarded feedback: %d", code)
	}

	// Leader gone: the relay fails loudly instead of pretending to record.
	code, out = postJSON(t, base+"/optimize", `{"query_id": "q8"}`)
	if code != http.StatusOK {
		t.Fatalf("optimize: %d %v", code, out)
	}
	serveID = out["serve_id"].(string)
	leader.Close()
	if code, out = postJSON(t, base+"/feedback", `{"serve_id": "`+serveID+`", "latency_ms": 3}`); code != http.StatusBadGateway {
		t.Fatalf("feedback with dead leader: %d %v", code, out)
	}
}

// TestLeaderReplEndpoints: the replication source surface — manifest 412
// without a store, 404 before the first checkpoint, then manifest +
// decodable blob; traversal names are refused.
func TestLeaderReplEndpoints(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base, _ := newWireFixture(t, cfg)
	if code, _ := getJSON(t, base+"/repl/manifest"); code != http.StatusPreconditionFailed {
		t.Fatalf("manifest without store: %d", code)
	}

	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg.Store = st
	base2, _ := newWireFixture(t, cfg)
	if code, _ := getJSON(t, base2+"/repl/manifest"); code != http.StatusNotFound {
		t.Fatalf("manifest before first checkpoint: %d", code)
	}
	if code, out := postJSON(t, base2+"/checkpoint", `{}`); code != http.StatusOK {
		t.Fatalf("checkpoint: %d %v", code, out)
	}
	code, m := getJSON(t, base2+"/repl/manifest")
	if code != http.StatusOK {
		t.Fatalf("manifest: %d %v", code, m)
	}
	name, _ := m["checkpoint"].(string)
	resp, err := http.Get(base2 + "/repl/checkpoint/" + name)
	if err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 0)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		blob = append(blob, buf[:n]...)
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint fetch: %d %s", resp.StatusCode, blob)
	}
	if ck, backend, err := store.DecodeCheckpoint(blob); err != nil || backend != "fake" || ck.Epoch == 0 {
		t.Fatalf("fetched blob does not decode: err=%v backend=%q", err, backend)
	}
	for _, bad := range []string{"MANIFEST", "nope.snap", "ckpt-1-2.snap"} {
		if code, _ := getJSON(t, base2+"/repl/checkpoint/"+bad); code != http.StatusNotFound {
			t.Fatalf("bad name %q: %d", bad, code)
		}
	}
	// An escaped slash survives routing as one {name} segment and reaches
	// the handler decoded ("../MANIFEST", "a/b"): only the checkpoint-name
	// allowlist stands between it and the state directory.
	manifest, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil || len(manifest) == 0 {
		t.Fatalf("read MANIFEST: %v (%d bytes)", err, len(manifest))
	}
	for _, bad := range []string{"..%2FMANIFEST", "a%2Fb"} {
		resp, err := http.Get(base2 + "/repl/checkpoint/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound || bytes.Contains(body, manifest) {
			t.Fatalf("encoded name %q: %d %q, want a 404 without the manifest", bad, resp.StatusCode, body)
		}
	}
}

// TestApplyCheckpoint: a newer-generation checkpoint hot-swaps into the
// loop (epoch adopted, swap counted, a fork loaded it and is published, the
// demoted replica is never reloaded); stale and same-epoch checkpoints are
// no-ops.
func TestApplyCheckpoint(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	cfg.Follower = true
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	if err := lp.ApplyCheckpoint(store.Checkpoint{Model: []byte("g5"), Epoch: 5, WALSeq: 50}); err != nil {
		t.Fatal(err)
	}
	if lp.Epoch() != 5 {
		t.Fatalf("epoch = %d, want 5", lp.Epoch())
	}
	if lp.Stats().Swaps != 1 {
		t.Fatalf("swaps = %d", lp.Stats().Swaps)
	}
	// The published fork loaded the image; the demoted replica did not.
	forks := blue.forked()
	if len(forks) != 1 || lp.Active() != Replica(forks[0]) {
		t.Fatalf("want the one fork published, forks=%d", len(forks))
	}
	if forks[0].loads.Load() != 1 || forks[0].currentWeights() != "g5" {
		t.Fatalf("published fork: loads=%d weights=%q, want 1 and the image", forks[0].loads.Load(), forks[0].currentWeights())
	}
	if blue.loads.Load() != 0 || blue.currentWeights() != "w0" {
		t.Fatalf("demoted replica: loads=%d weights=%q, want 0 and untouched", blue.loads.Load(), blue.currentWeights())
	}

	for _, stale := range []uint64{5, 4} {
		if err := lp.ApplyCheckpoint(store.Checkpoint{Model: []byte("old"), Epoch: stale}); err != nil {
			t.Fatalf("stale epoch %d: %v", stale, err)
		}
	}
	if lp.Epoch() != 5 || lp.Stats().Swaps != 1 {
		t.Fatalf("stale apply moved the loop: epoch=%d swaps=%d", lp.Epoch(), lp.Stats().Swaps)
	}
}

// TestFollowerNeverRetrains: drift that would trigger a retrain on a
// leader is ignored on a follower — its model moves only by checkpoint.
func TestFollowerNeverRetrains(t *testing.T) {
	cfg := syncConfig()
	cfg.Detector = DetectorConfig{Window: 2, Threshold: 1.05, MinSamples: 2, NoveltyFrac: 0}
	cfg.Follower = true
	blue := newFake("blue")
	lp := New(cfg, blue, nil)

	for i := int64(0); i < 8; i++ {
		res, err := lp.Serve(t.Context(), fq(i))
		if err != nil {
			t.Fatal(err)
		}
		// Ever-worse latencies: guaranteed drift pressure.
		lp.Record(fq(i), res.Eval, float64(100*(i+1)))
	}
	if n := len(blue.forked()); n != 0 || blue.trains.Load() != 0 || lp.Stats().Retrains != 0 {
		t.Fatalf("follower retrained: forks=%d stats=%+v", n, lp.Stats())
	}
}

// TestMetricsReplFamilies: a server with ReplStats exposes the replication
// gauges; one without does not.
func TestMetricsReplFamilies(t *testing.T) {
	base, _ := newFollowerFixture(t, HTTPOptions{
		LeaderAddr: "http://leader:8475",
		ReplStats: func() repl.Stats {
			return repl.Stats{LastAppliedEpoch: 7, LastAppliedWALSeq: 42, LagCheckpoints: 1, AppliedSwaps: 3, FetchErrors: 2}
		},
	})
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp.Body.Close()
	text := sb.String()
	for _, want := range []string{
		`foss_repl_last_applied_walseq{tenant="default"} 42`,
		`foss_repl_last_applied_epoch{tenant="default"} 7`,
		`foss_repl_lag_checkpoints{tenant="default"} 1`,
		`foss_repl_swaps_applied_total{tenant="default"} 3`,
		`foss_repl_fetch_errors_total{tenant="default"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	// No ReplStats (a leader): families may appear, series must not.
	cfg := syncConfig()
	cfg.Detector.Threshold = 100
	base2, _ := newWireFixture(t, cfg)
	resp2, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	for {
		n, err := resp2.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	resp2.Body.Close()
	if strings.Contains(sb.String(), `foss_repl_last_applied_walseq{tenant="default"} 0`) {
		t.Fatalf("leader scrape carries repl series:\n%s", sb.String())
	}
}
