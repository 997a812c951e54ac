package store

import (
	"errors"
	"testing"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
)

// FuzzDecodeCheckpoint feeds DecodeCheckpoint — the decoder every follower
// runs on what its leader sends — two kinds of input: raw blobs, and
// arbitrary payloads sealed under a valid envelope (sealed=true), so the gob
// decode past the CRC is exercised too. It must never panic, and every
// refusal must wrap ErrSnapshotCorrupt or ErrSnapshotVersion. Seeds are a
// real checkpoint blob, its payload, and truncations of both.
//
//	go test ./internal/store -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 10s
func FuzzDecodeCheckpoint(f *testing.F) {
	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	q := testQuery(7)
	icp := plan.ICP{Order: []string{"t", "u"}, Methods: []plan.JoinMethod{plan.HashJoin}}
	name, err := st.WriteCheckpoint("selinger", Checkpoint{
		Model:        []byte("weights"),
		Buffer:       []ExecRecord{{Query: q, ICP: icp, Step: 1, LatencyMs: 3.5}},
		Epoch:        4,
		WALSeq:       9,
		Tier:         &TierState{Pins: []PinnedPlan{{Fingerprint: 42, Query: q, ICP: icp, LatencyMs: 3.5, Epoch: 4}}},
		CatalogEpoch: 1,
		CatalogHash:  0xfeed,
		CatalogDDL:   []catalog.DDL{{Kind: catalog.DDLAddTable, Table: "x", Columns: []catalog.Column{{Name: "id", Indexed: true}}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	blob, err := st.ReadCheckpoint(name)
	if err != nil {
		f.Fatal(err)
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	env, err := Unseal(blob)
	if err != nil {
		f.Fatal(err)
	}
	for _, cut := range []int{len(blob), len(blob) - 1, len(blob) / 2, len(magic) + 1, len(magic), 0} {
		f.Add(blob[:cut], false)
	}
	for _, cut := range []int{len(env.Payload), len(env.Payload) / 2, 1, 0} {
		f.Add(env.Payload[:cut], true)
	}

	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			var err error
			if data, err = Seal("selinger", data); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := DecodeCheckpoint(data); err != nil &&
			!errors.Is(err, fosserr.ErrSnapshotCorrupt) && !errors.Is(err, fosserr.ErrSnapshotVersion) {
			t.Fatalf("DecodeCheckpoint error wraps neither snapshot sentinel: %v", err)
		}
	})
}
