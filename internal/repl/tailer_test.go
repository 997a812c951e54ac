package repl

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/store"
)

// memSource is a scripted Source.
type memSource struct {
	mu    sync.Mutex
	m     store.Manifest
	ok    bool
	blobs map[string][]byte
	err   error
}

func (s *memSource) publish(epoch, seq uint64, blob []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	name := "ckpt"
	s.m = store.Manifest{Version: 1, Checkpoint: name, Backend: "fake", Epoch: epoch, WALSeq: seq}
	s.ok = true
	if s.blobs == nil {
		s.blobs = map[string][]byte{}
	}
	s.blobs[name] = blob
}

func (s *memSource) Manifest(context.Context) (store.Manifest, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m, s.ok, s.err
}

func (s *memSource) FetchCheckpoint(_ context.Context, name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if b, ok := s.blobs[name]; ok {
		return b, nil
	}
	return nil, errors.New("no such checkpoint")
}

func (s *memSource) String() string { return "mem" }

// sealed produces a valid sealed checkpoint blob for the fake backend.
func sealed(t *testing.T, epoch, seq uint64) []byte {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	name, err := st.WriteCheckpoint("fake", store.Checkpoint{Model: []byte("m"), Epoch: epoch, WALSeq: seq})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.ReadCheckpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTailerAppliesOnEpochAdvance: applies exactly when the epoch moves
// past the applied one; same-epoch republications and stale manifests are
// skipped; stats track lag and swaps.
func TestTailerAppliesOnEpochAdvance(t *testing.T) {
	src := &memSource{}
	var applied []uint64
	tl := New(Config{
		Source:       src,
		InitialEpoch: 1,
		Apply: func(m store.Manifest, ck store.Checkpoint) error {
			applied = append(applied, ck.Epoch)
			return nil
		},
	})

	ctx := context.Background()
	// No manifest yet: quiet no-op.
	if ok, err := tl.Poll(ctx); ok || err != nil {
		t.Fatalf("empty source: ok=%v err=%v", ok, err)
	}
	// The boot checkpoint's epoch republished (longer WAL horizon): skip.
	src.publish(1, 50, sealed(t, 1, 50))
	if ok, err := tl.Poll(ctx); ok || err != nil {
		t.Fatalf("same-epoch republication applied: ok=%v err=%v", ok, err)
	}
	// A new generation: apply.
	src.publish(2, 60, sealed(t, 2, 60))
	if ok, err := tl.Poll(ctx); !ok || err != nil {
		t.Fatalf("epoch advance: ok=%v err=%v", ok, err)
	}
	// Idempotent: the same manifest does not re-apply.
	if ok, err := tl.Poll(ctx); ok || err != nil {
		t.Fatalf("re-poll re-applied: ok=%v err=%v", ok, err)
	}
	if len(applied) != 1 || applied[0] != 2 {
		t.Fatalf("applied = %v, want [2]", applied)
	}
	st := tl.Stats()
	if st.LastAppliedEpoch != 2 || st.LastAppliedWALSeq != 60 || st.AppliedSwaps != 1 || st.LagCheckpoints != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTailerCountsTransientErrors: source errors and apply failures are
// counted, lag is visible, and a later healthy poll recovers.
func TestTailerCountsTransientErrors(t *testing.T) {
	src := &memSource{}
	failApply := true
	tl := New(Config{
		Source: src,
		Apply: func(m store.Manifest, ck store.Checkpoint) error {
			if failApply {
				return errors.New("standby busy")
			}
			return nil
		},
	})
	ctx := context.Background()

	src.err = errors.New("connection refused")
	if _, err := tl.Poll(ctx); err == nil {
		t.Fatal("want manifest error")
	}
	src.err = nil

	src.publish(3, 10, sealed(t, 3, 10))
	if _, err := tl.Poll(ctx); err == nil {
		t.Fatal("want apply error")
	}
	st := tl.Stats()
	if st.FetchErrors != 2 {
		t.Fatalf("FetchErrors = %d, want 2", st.FetchErrors)
	}
	if st.LastSeenEpoch != 3 || st.LagCheckpoints != 3 {
		t.Fatalf("lag stats = %+v", st)
	}

	failApply = false
	if ok, err := tl.Poll(ctx); !ok || err != nil {
		t.Fatalf("recovery poll: ok=%v err=%v", ok, err)
	}
	if st := tl.Stats(); st.LagCheckpoints != 0 || st.AppliedSwaps != 1 {
		t.Fatalf("post-recovery stats = %+v", st)
	}
}

// TestHTTPSourceAgainstHandler: HTTPSource speaks the wire protocol —
// 404 means not published, a manifest whose CRC does not match its fields
// is a fetch error the tailer counts, a legacy manifest without a CRC is
// accepted, a blob round-trips byte-identical, and bad names are refused
// client-side.
func TestHTTPSourceAgainstHandler(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	name, err := st.WriteCheckpoint("fake", store.Checkpoint{Model: []byte("m"), Epoch: 9, WALSeq: 3})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.ReadCheckpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	published, _ := st.Latest() // carries the writer's CRC
	tampered, legacy := published, published
	tampered.CRC++
	legacy.CRC = 0 // omitted from the JSON, as in manifests written before the field

	var mu sync.Mutex
	var body []byte // nil = not published
	serve := func(m store.Manifest) {
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		defer mu.Unlock()
		body = b
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/t/acme/repl/manifest", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		b := body
		mu.Unlock()
		if b == nil {
			http.Error(w, `{"error":"no checkpoint"}`, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b)
	})
	mux.HandleFunc("/v1/t/acme/repl/checkpoint/", func(w http.ResponseWriter, r *http.Request) {
		w.Write(blob)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	src := NewHTTPSource(ts.URL + "/v1/t/acme")
	ctx := context.Background()
	if _, ok, err := src.Manifest(ctx); ok || err != nil {
		t.Fatalf("pre-publish: ok=%v err=%v", ok, err)
	}

	// A checksum that does not match the fields: refused, and counted as a
	// fetch error by the tailer.
	serve(tampered)
	if _, ok, err := src.Manifest(ctx); ok || !errors.Is(err, fosserr.ErrSnapshotCorrupt) {
		t.Fatalf("tampered CRC: ok=%v err=%v, want ErrSnapshotCorrupt", ok, err)
	}
	tl := New(Config{Source: src, Apply: func(store.Manifest, store.Checkpoint) error {
		t.Error("a CRC-mismatched manifest reached Apply")
		return nil
	}})
	if ok, err := tl.Poll(ctx); ok || err == nil {
		t.Fatalf("tailer over a tampered manifest: ok=%v err=%v", ok, err)
	}
	if st := tl.Stats(); st.FetchErrors != 1 || st.LastSeenEpoch != 0 {
		t.Fatalf("tampered manifest stats = %+v, want one fetch error and nothing seen", st)
	}

	// A legacy manifest without a CRC is accepted; so is the writer's own.
	serve(legacy)
	if m, ok, err := src.Manifest(ctx); !ok || err != nil || m.Epoch != 9 {
		t.Fatalf("legacy manifest: ok=%v err=%v m=%+v", ok, err, m)
	}
	serve(published)
	m, ok, err := src.Manifest(ctx)
	if !ok || err != nil || m != published {
		t.Fatalf("manifest: ok=%v err=%v m=%+v", ok, err, m)
	}
	got, err := src.FetchCheckpoint(ctx, m.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if ck, _, err := store.DecodeCheckpoint(got); err != nil || ck.Epoch != 9 {
		t.Fatalf("decode fetched: err=%v", err)
	}
	if _, err := src.FetchCheckpoint(ctx, "../MANIFEST"); err == nil {
		t.Fatal("traversal name accepted")
	}
}

// TestWaitForCheckpoint: blocks until publication, honors ctx.
func TestWaitForCheckpoint(t *testing.T) {
	src := &memSource{}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, _, err := WaitForCheckpoint(ctx, src, 10*time.Millisecond); err == nil {
		t.Fatal("want timeout before publication")
	}

	blob := sealed(t, 2, 5)
	go func() {
		time.Sleep(30 * time.Millisecond)
		src.publish(2, 5, blob)
	}()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	m, ck, err := WaitForCheckpoint(ctx2, src, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if m.Epoch != 2 || ck.Epoch != 2 || ck.WALSeq != 5 {
		t.Fatalf("m=%+v ck.Epoch=%d", m, ck.Epoch)
	}
}
