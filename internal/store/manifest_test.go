package store

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestManifestCRCRejectsTornWrite: a manifest whose CRC does not match its
// fields (a torn or bit-flipped file) reads as not-yet-published, never as a
// bogus recovery point the leader's /repl/manifest handler would serve.
func TestManifestCRCRejectsTornWrite(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.WriteCheckpoint("fake", Checkpoint{Model: []byte("m"), Epoch: 1, WALSeq: 0}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "MANIFEST"))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := st.Latest(); !ok || m.Epoch != 1 || m.CRC == 0 {
		t.Fatalf("intact manifest: ok=%v m=%+v", ok, m)
	}

	// Truncated mid-write: invalid JSON.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), good[:len(good)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Latest(); ok {
		t.Fatal("torn manifest read as published")
	}

	// Valid JSON, wrong CRC: fields from one write, checksum from another.
	tampered := []byte(`{"version":1,"checkpoint":"ckpt-00000001-000000000000.snap","backend":"fake","epoch":9,"wal_seq":0,"crc":12345}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Latest(); ok {
		t.Fatal("CRC-mismatched manifest read as published")
	}

	// Pre-CRC manifest (field absent): accepted for back-compat.
	legacy := []byte(`{"version":1,"checkpoint":"ckpt-00000001-000000000000.snap","backend":"fake","epoch":1,"wal_seq":0}` + "\n")
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if m, ok := st.Latest(); !ok || m.Epoch != 1 {
		t.Fatalf("legacy manifest without CRC: ok=%v m=%+v", ok, m)
	}
}

// TestPublishTailRace races a publishing writer against the reads the
// leader's /repl/* handlers make (Latest, then ReadCheckpoint): they must
// never observe an error, a torn manifest, or a manifest going backwards,
// and every checkpoint the manifest names must decode intact at the moment
// it is current.
func TestPublishTailRace(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const rounds = 40
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= rounds; i++ {
			if _, err := st.WriteCheckpoint("fake", Checkpoint{
				Model:  []byte("model"),
				Epoch:  uint64(i),
				WALSeq: uint64(i),
			}); err != nil {
				t.Errorf("publish %d: %v", i, err)
				return
			}
		}
	}()

	var lastEpoch uint64
	for {
		m, ok := st.Latest()
		if !ok {
			continue
		}
		if m.Epoch < lastEpoch {
			t.Fatalf("manifest went backwards: %d after %d", m.Epoch, lastEpoch)
		}
		lastEpoch = m.Epoch
		blob, err := st.ReadCheckpoint(m.Checkpoint)
		if err != nil {
			// The leader prunes old checkpoints: a fetch can lose the race
			// with a newer publish, but then the manifest must have moved on.
			if m2, ok2 := st.Latest(); ok2 && m2.Checkpoint != m.Checkpoint {
				continue
			}
			t.Fatalf("fetch current checkpoint %s: %v", m.Checkpoint, err)
		}
		ck, backend, err := DecodeCheckpoint(blob)
		if err != nil {
			t.Fatalf("decode %s: %v", m.Checkpoint, err)
		}
		if backend != "fake" || ck.Epoch != m.Epoch {
			t.Fatalf("checkpoint/manifest mismatch: ck.Epoch=%d m.Epoch=%d", ck.Epoch, m.Epoch)
		}
		if m.Epoch == rounds {
			break
		}
	}
	wg.Wait()
}

// TestValidCheckpointName pins the wire-fetch allowlist.
func TestValidCheckpointName(t *testing.T) {
	if !ValidCheckpointName("ckpt-00000001-000000000042.snap") {
		t.Fatal("canonical name rejected")
	}
	for _, bad := range []string{
		"", "ckpt-1-2.snap", "../../etc/passwd",
		"ckpt-00000001-000000000042.snap.bak",
		"ckpt-0000000a-000000000042.snap",
		"ckpt-00000001/000000000042.snap",
		"ckpt-00000001-00000000004.snapp",
	} {
		if ValidCheckpointName(bad) {
			t.Fatalf("accepted %q", bad)
		}
	}
}
