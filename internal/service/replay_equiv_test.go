package service

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/planner"
	"github.com/foss-db/foss/internal/query"
	"github.com/foss-db/foss/internal/store"
	"github.com/foss-db/foss/internal/tier"
)

// op is one scripted event: feedback on q at lat (the fake expert's latency
// is 10, so 5 wins and 30 regresses), a DDL batch, a forced retrain, or —
// crash — a checkpoint after which no later checkpoint lands, so recovery
// starts from it and replays whatever the script journals next.
type op struct {
	q       *query.Query
	lat     float64
	ddl     []catalog.DDL
	retrain bool
	crash   bool
}

// loopState is everything the three transitions advance, in comparable form.
type loopState struct {
	Epoch, CatalogEpoch uint64
	Cooldown            int
	Window              Signal
	Recent              []string
	Buffer              []string
	Tier                string
}

func snapshotState(lp *Loop) loopState {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	st := loopState{
		Epoch:        lp.Epoch(),
		CatalogEpoch: lp.CatalogEpoch(),
		Cooldown:     lp.lrn.sinceRetrain,
		Window:       lp.lrn.det.WindowState(),
	}
	for _, q := range lp.lrn.recent {
		st.Recent = append(st.Recent, q.ID)
	}
	// The one buffer, projected like the pins below: in canonical order,
	// by query id, plan and outcome.
	for _, r := range lp.Active().Buffer().Export() {
		st.Buffer = append(st.Buffer, fmt.Sprintf("%s %s step=%d lat=%v", r.Query.ID, r.ICP.Key(), r.Step, r.LatencyMs))
	}
	// Pins hold *query.Query (memoized fingerprints differ between a live
	// query and its gob-decoded twin), so project the exported state.
	ts := lp.srv.tiers.Export()
	for _, p := range ts.Pins {
		st.Tier += fmt.Sprintf("pin %x %s step=%d lat=%v epoch=%d; ", p.Fingerprint, p.ICP.Key(), p.Step, p.LatencyMs, p.Epoch)
	}
	st.Tier += fmt.Sprintf("%+v", ts.History)
	return st
}

// TestReplayEquivalentToLive drives scripted streams through a durable loop
// and demands that recovery — the journal replayed into a fresh loop — lands
// in the state the live loop was in: one transition per event, shared by
// both. The crash-window cases recover from a checkpoint whose tail STARTS
// at a DDL/swap record (the crash beat the checkpoint that event ends on);
// the recovered loop must not reuse the epoch the event already published.
func TestReplayEquivalentToLive(t *testing.T) {
	onB := func(v int64) *query.Query {
		q := fq(v)
		q.Tables = []query.TableRef{{Table: "b", Alias: "b"}}
		return q
	}
	dropB := []catalog.DDL{{Kind: catalog.DDLDropTable, Table: "b"}}
	win := func(v int64) op { return op{q: fq(v), lat: 5} }
	regress := func(v int64) op { return op{q: fq(v), lat: 30} }

	cases := []struct {
		name      string
		script    []op
		firstTail store.RecordKind // crash cases: the kind the recovered tail must start at
		wantEpoch uint64
	}{
		{
			name: "feedback, drift-triggered swap, ddl: whole journal from seq 0",
			script: []op{
				win(1), win(1), win(1), {q: onB(2), lat: 5},
				regress(3), regress(4), // window mean crosses 1.2 → retrain → swap
				win(1), win(5),
				{ddl: dropB}, // prunes the table-b query from the recent ring
				win(1), win(1), win(6),
			},
			wantEpoch: 3,
		},
		{
			name:      "crash window: tail starts at a DDL record",
			script:    []op{win(1), win(1), {q: onB(2), lat: 5}, {crash: true}, {ddl: dropB}, win(1), win(3)},
			firstTail: store.KindDDL,
			wantEpoch: 2,
		},
		{
			name:      "crash window: tail starts at a swap record",
			script:    []op{win(1), win(1), win(2), {crash: true}, {retrain: true}, win(1), regress(3)},
			firstTail: store.KindSwap,
			wantEpoch: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cfg := syncConfig()
			cfg.Tier = tier.Config{Memory: true, PromoteAfter: 2}
			cfg.Store = st
			blue := newFake("blue")
			lp := New(cfg, blue, nil)
			crashed := false
			for i, o := range tc.script {
				switch {
				case o.crash:
					if _, err := lp.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					blue.lin.saveFail.Store(true) // every fork inherits it
					crashed = true
				case o.ddl != nil:
					if _, err := lp.ApplyDDL(o.ddl); err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
				case o.retrain:
					lp.triggerRetrain()
				default:
					res, err := lp.Serve(context.Background(), o.q)
					if err != nil {
						t.Fatalf("op %d: %v", i, err)
					}
					if !lp.Record(o.q, res.Eval, o.lat) {
						t.Fatalf("op %d: feedback refused", i)
					}
				}
			}
			live := snapshotState(lp)
			if live.Epoch != tc.wantEpoch {
				t.Fatalf("live loop at epoch %d, want %d (script did not swap/ddl as intended): %+v", live.Epoch, tc.wantEpoch, lp.Stats())
			}
			st.Close() // the crash: no Close, no final checkpoint

			st2, err := store.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			cfg2 := cfg
			cfg2.Store = st2
			blue2 := newFake("blue2")
			var tail []store.WALEntry
			var ck *store.Checkpoint
			if crashed {
				rec, err := st2.Recover()
				if err != nil || rec == nil {
					t.Fatalf("recover: %v, %v", rec, err)
				}
				ck, tail = &rec.Checkpoint, rec.Tail
				if len(tail) == 0 || tail[0].Kind != tc.firstTail {
					t.Fatalf("recovered tail %+v does not start at kind %d", tail, tc.firstTail)
				}
				// What core.installCheckpoint does for real replicas.
				if err := blue2.SyncCatalog(ck.CatalogEpoch, ck.CatalogHash, ck.CatalogDDL); err != nil {
					t.Fatal(err)
				}
				err = blue2.buf.Import(ck.Buffer, func(r store.ExecRecord) (*planner.PlanEval, error) {
					return blue2.RebuildEval(r.Query, r.ICP, r.Step)
				})
				if err != nil {
					t.Fatal(err)
				}
				cfg2.InitialEpoch = ck.Epoch
			} else if err := st2.WAL().Replay(0, func(e store.WALEntry) error { tail = append(tail, e); return nil }); err != nil {
				t.Fatal(err)
			}
			lp2 := New(cfg2, blue2, nil)
			if ck != nil {
				if err := lp2.ImportTier(ck.Tier); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := lp2.Replay(tail); err != nil {
				t.Fatal(err)
			}
			got := snapshotState(lp2)
			if crashed {
				// A checkpoint does not carry the recent ring, the detector's
				// seen-fingerprint set, or the cooldown (which only a swap
				// restarts): those rebuild from the tail alone.
				live.Recent, got.Recent = nil, nil
				live.Window.NovelFrac, got.Window.NovelFrac = 0, 0
				if tc.firstTail != store.KindSwap {
					live.Cooldown, got.Cooldown = 0, 0
				}
			}
			if !reflect.DeepEqual(got, live) {
				t.Fatalf("replayed state diverges from the live loop's\n live:   %+v\n replay: %+v", live, got)
			}
			if s := lp2.Stats(); s.RecoveredEpoch != tc.wantEpoch {
				t.Fatalf("RecoveredEpoch %d, want %d", s.RecoveredEpoch, tc.wantEpoch)
			}
		})
	}
}

// TestJournalWithoutStoreIsNoOp: the in-memory loop's journal accepts every
// append, writes nothing and counts nothing — no replica needed.
func TestJournalWithoutStoreIsNoOp(t *testing.T) {
	var j journal
	j.append(store.WALEntry{Kind: store.KindFeedback, Query: fq(1)})
	j.append(store.WALEntry{Kind: store.KindSwap, Epoch: 2})
	if n := j.walErrors.Load(); n != 0 {
		t.Fatalf("no-op journal counted %d errors", n)
	}
}

// TestJournalAppendFailure: a failing append bumps WALErrors exactly once
// per record and is otherwise invisible — the transition it preceded still
// runs.
func TestJournalAppendFailure(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.Close() // every append from here on fails
	j := journal{st: st}
	j.append(store.WALEntry{Kind: store.KindSwap, Epoch: 2})
	if n := j.walErrors.Load(); n != 1 {
		t.Fatalf("failed append counted %d errors, want 1", n)
	}

	cfg := syncConfig()
	cfg.Detector.Threshold = 100 // never drift
	cfg.Store = st
	blue := newFake("blue")
	lp := New(cfg, blue, nil)
	q := fq(1)
	if !lp.Record(q, &planner.PlanEval{Q: q}, 5) {
		t.Fatal("feedback refused because the journal is down")
	}
	if _, err := lp.ApplyDDL([]catalog.DDL{{Kind: catalog.DDLDropTable, Table: "b"}}); err != nil {
		t.Fatal(err)
	}
	s := lp.Stats()
	if s.WALErrors != 2 || s.Recorded != 1 || s.Epoch != 2 || s.CatalogEpoch != 1 {
		t.Fatalf("walErrors=%d recorded=%d epoch=%d catalogEpoch=%d, want 2/1/2/1", s.WALErrors, s.Recorded, s.Epoch, s.CatalogEpoch)
	}
	if blue.buf.Size() != 1 {
		t.Fatalf("buffer %d, want 1: the feedback transition did not run", blue.buf.Size())
	}
}
