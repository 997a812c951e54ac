package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/plan"
)

// FuzzOpenWAL writes arbitrary bytes as a journal and opens it, the way a
// restart opens whatever a crash left on disk. OpenWAL must never panic; it
// must truncate the file to a prefix of what was there that ends on a frame
// boundary; Len must count exactly the records Replay yields; and one Append
// after the open must replay as the last record, under Seq == LastSeq. Most
// inputs the fuzzer keeps hold intact gob frames, each decoded with a fresh
// decoder, so an exec costs milliseconds and ten seconds run a few thousand. Seeds
// are a real journal of every record kind, truncations of it, and copies with
// a corrupt length prefix, checksum and payload.
//
//	go test ./internal/store -run '^$' -fuzz FuzzOpenWAL -fuzztime 10s
func FuzzOpenWAL(f *testing.F) {
	path := filepath.Join(f.TempDir(), "wal.log")
	w, err := OpenWAL(path)
	if err != nil {
		f.Fatal(err)
	}
	icp := plan.ICP{Order: []string{"t", "u"}, Methods: []plan.JoinMethod{plan.HashJoin}}
	for _, e := range []WALEntry{
		{Kind: KindFeedback, Fingerprint: 1, Query: testQuery(1), ICP: icp, Step: 1, LatencyMs: 2.5},
		{Kind: KindSwap, Epoch: 2},
		{Kind: KindDDL, Epoch: 3, DDL: []catalog.DDL{{Kind: catalog.DDLAddTable, Table: "x", Columns: []catalog.Column{{Name: "id", Indexed: true}}}}},
		{Kind: KindFeedback, Fingerprint: 2, Query: testQuery(2), ICP: icp, TimedOut: true},
	} {
		if _, err := w.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	journal, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{len(journal), len(journal) - 1, len(journal) / 2, 9, 8, 7, 0} {
		f.Add(journal[:cut])
	}
	first := 8 + int(binary.LittleEndian.Uint32(journal))
	for _, at := range []int{0, 4, 8, first + 12} { // length, checksum, payload; the second frame's payload
		bad := bytes.Clone(journal)
		bad[at] ^= 0x40
		f.Add(bad)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(path)
		if err != nil {
			t.Fatalf("OpenWAL on %d bytes: %v", len(data), err)
		}
		defer w.Close()
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(kept) > len(data) || !bytes.Equal(kept, data[:len(kept)]) {
			t.Fatalf("OpenWAL left %d bytes that are not a prefix of the %d written", len(kept), len(data))
		}
		off, frames := 0, uint64(0)
		for off < len(kept) {
			if len(kept)-off < 8 {
				t.Fatalf("OpenWAL kept %d bytes, ending inside the header at %d", len(kept), off)
			}
			off += 8 + int(binary.LittleEndian.Uint32(kept[off:]))
			frames++
		}
		if off != len(kept) || frames != w.Len() {
			t.Fatalf("OpenWAL kept %d bytes: frames end at %d, %d frames for Len %d", len(kept), off, frames, w.Len())
		}
		opened := w.Len()
		seq, err := w.Append(WALEntry{Kind: KindSwap, Epoch: 77})
		if err != nil {
			t.Fatal(err)
		}
		// One replay checks both: the records the open counted, then the
		// appended one last.
		var last WALEntry
		n := uint64(0)
		if err := w.Replay(0, func(e WALEntry) error { n, last = n+1, e; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != opened+1 || w.Len() != n {
			t.Fatalf("Replay yields %d records after one append to an open journal of Len %d (Len now %d)", n, opened, w.Len())
		}
		if last.Kind != KindSwap || last.Epoch != 77 || last.Seq != seq || seq != w.LastSeq() {
			t.Fatalf("the appended record replays as %+v: appended seq %d, LastSeq %d", last, seq, w.LastSeq())
		}
	})
}
