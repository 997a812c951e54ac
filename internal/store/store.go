package store

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// ExecRecord is one execution-buffer entry in durable form: the query, the
// incomplete plan that was executed, the edit step it was produced at, and
// the observed outcome. The complete plan and its encoding are re-derived on
// import (deterministic under a fixed backend), so the format survives
// tensor-layout changes.
type ExecRecord struct {
	Query     *query.Query
	ICP       plan.ICP
	Step      int
	LatencyMs float64
	TimedOut  bool
}

// Checkpoint is the durable image of the active replica at one instant: the
// sealed model snapshot, the execution buffer, the serving epoch, the WAL
// sequence the image is current through (recovery replays only entries after
// it), and the tier router's plan memory. Tier is nil when tiered serving is
// off — and absent entirely in pre-tier checkpoints, which gob decodes as
// nil, keeping old state directories loadable.
type Checkpoint struct {
	Model  []byte // sealed envelope produced by core's Save
	Buffer []ExecRecord
	Epoch  uint64
	WALSeq uint64
	Tier   *TierState
	// CatalogEpoch/CatalogHash/CatalogDDL pin the schema generation the
	// image was taken at: the epoch (DDL statements applied since load), the
	// canonical schema hash, and the full applied-DDL log — recovery replays
	// the log over the load-time schema before loading the model, and
	// refuses cross-epoch warm-starts the way backend mismatches are
	// refused. All three gob-decode as zero/nil in pre-catalog checkpoints,
	// which reads as "epoch 0, no DDL" — exactly right.
	CatalogEpoch uint64
	CatalogHash  uint64
	CatalogDDL   []catalog.DDL
}

// TierState is the durable image of the tier router: every pinned tier-0
// plan plus the per-fingerprint routing history. Pins carry the same durable
// identity as WAL feedback records (query × incomplete plan × step) — the
// complete plan and encoding are re-derived on import, so the format
// survives tensor-layout changes exactly like the execution buffer does.
type TierState struct {
	Pins    []PinnedPlan
	History []TierHistory
}

// PinnedPlan is one tier-0 plan-memory entry in durable form.
type PinnedPlan struct {
	Fingerprint uint64
	Query       *query.Query
	ICP         plan.ICP
	Step        int
	LatencyMs   float64 // best observed latency that earned the pin
	Epoch       uint64  // model epoch the pin was promoted at
}

// TierHistory is one fingerprint's routing history in durable form.
type TierHistory struct {
	Fingerprint uint64
	Wins        int
	Regressed   bool
}

// Manifest points at the latest good checkpoint. It is the recovery root:
// written atomically (temp + rename) after the checkpoint file itself is
// durable, so a crash between the two leaves the previous manifest — and
// therefore a consistent recovery — intact.
type Manifest struct {
	Version    int    `json:"version"`
	Checkpoint string `json:"checkpoint"` // filename under checkpoints/
	Backend    string `json:"backend"`
	Epoch      uint64 `json:"epoch"`
	WALSeq     uint64 `json:"wal_seq"`
	// CRC is the IEEE checksum over the other fields' canonical form
	// (Verify). It guards readers that observe the manifest through a
	// non-atomic channel (a torn file, a partial or corrupted HTTP body): a
	// mismatched manifest is never applied — a local read treats it as not
	// yet published, a follower's fetch as an error. 0 (absent in pre-repl
	// manifests) skips the check for backward compatibility.
	CRC uint32 `json:"crc,omitempty"`
}

// checksum computes the manifest's integrity check over every field except
// CRC itself.
func (m Manifest) checksum() uint32 {
	return crc32.ChecksumIEEE([]byte(fmt.Sprintf("%d|%s|%s|%d|%d",
		m.Version, m.Checkpoint, m.Backend, m.Epoch, m.WALSeq)))
}

// Verify checks CRC against the other fields, failing with
// fosserr.ErrSnapshotCorrupt on a mismatch. A zero CRC (a manifest written
// before the field existed) passes.
func (m Manifest) Verify() error {
	if m.CRC != 0 && m.CRC != m.checksum() {
		return fmt.Errorf("store: manifest crc %#x does not match its fields: %w", m.CRC, fosserr.ErrSnapshotCorrupt)
	}
	return nil
}

const (
	manifestName   = "MANIFEST"
	walName        = "wal.log"
	lockName       = "LOCK"
	checkpointDir  = "checkpoints"
	keepCheckpoint = 2 // the manifest target plus one predecessor
)

// Store is one state directory: the WAL plus the checkpoint/manifest pair,
// held exclusively through an advisory lock for the store's lifetime.
type Store struct {
	dir  string
	wal  *WAL
	lock *os.File
}

// Open opens (creating if needed) a state directory. Exactly one live Store
// may hold a directory at a time: Open takes an exclusive flock on its LOCK
// file and fails fast with fosserr.ErrStoreLocked when another store — a
// second process, or two shards misconfigured onto one directory inside
// this one — already holds it. Two writers interleaving appends on one WAL
// would corrupt it silently; the lock turns that misconfiguration into a
// startup error. A kernel-held flock dies with its process, so a kill -9
// never strands a stale lock.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, checkpointDir), 0o755); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	lock, err := acquireLock(filepath.Join(dir, lockName))
	if err != nil {
		return nil, err
	}
	wal, err := OpenWAL(filepath.Join(dir, walName))
	if err != nil {
		releaseLock(lock)
		return nil, err
	}
	// Make the state directory's own entries (wal.log, checkpoints/)
	// durable: a wal.log created just before power loss must not vanish
	// with its acknowledged records.
	if err := syncDir(dir); err != nil {
		wal.Close()
		releaseLock(lock)
		return nil, err
	}
	return &Store{dir: dir, wal: wal, lock: lock}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// WAL returns the feedback journal.
func (s *Store) WAL() *WAL { return s.wal }

// Close closes the WAL and releases the directory lock, letting the next
// Open (a warm restart, a failover peer) take over the state.
func (s *Store) Close() error {
	err := s.wal.Close()
	if s.lock != nil {
		releaseLock(s.lock)
		s.lock = nil
	}
	return err
}

// Latest returns the current manifest, or ok=false when the directory has
// no durable checkpoint yet (cold start). A missing file, malformed JSON, or
// a CRC mismatch all read as "no manifest": the atomic rename makes those
// impossible in steady state, and the leader's /repl/manifest handler must
// never serve a torn one.
func (s *Store) Latest() (Manifest, bool) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestName))
	if err != nil {
		return Manifest{}, false
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil || m.Checkpoint == "" || m.Verify() != nil {
		return Manifest{}, false
	}
	return m, true
}

// ReadCheckpoint returns the raw sealed blob of a checkpoint file by name —
// the replication fetch path. The name is validated against the checkpoint
// naming scheme so a wire-supplied name can never escape the checkpoints
// directory.
func (s *Store) ReadCheckpoint(name string) ([]byte, error) {
	if !ValidCheckpointName(name) {
		return nil, fmt.Errorf("store: invalid checkpoint name %q", name)
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, checkpointDir, name))
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint %s: %w", name, err)
	}
	return blob, nil
}

// ValidCheckpointName reports whether name matches the ckpt-<epoch>-<seq>.snap
// scheme WriteCheckpoint produces — the allowlist for wire-supplied
// checkpoint fetches (no separators, no traversal).
func ValidCheckpointName(name string) bool {
	const prefix, suffix = "ckpt-", ".snap"
	if len(name) != len(prefix)+8+1+12+len(suffix) {
		return false
	}
	if name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	for i, c := range mid {
		if i == 8 {
			if c != '-' {
				return false
			}
			continue
		}
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// DecodeCheckpoint validates a sealed checkpoint blob and decodes it,
// returning the checkpoint and the backend tag it was sealed under — the
// follower-side half of WriteCheckpoint.
func DecodeCheckpoint(blob []byte) (Checkpoint, string, error) {
	env, err := Unseal(blob)
	if err != nil {
		return Checkpoint{}, "", err
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&ck); err != nil {
		return Checkpoint{}, "", fmt.Errorf("store: checkpoint decode: %v: %w", err, fosserr.ErrSnapshotCorrupt)
	}
	return ck, env.Backend, nil
}

// WriteCheckpoint seals the checkpoint into an envelope, writes it with
// temp+rename+fsync, repoints the manifest atomically, and prunes old
// checkpoint files. It returns the checkpoint filename. The manifest only
// moves forward: a write carrying an older (epoch, WAL sequence) than the
// current recovery point leaves the manifest alone, so a slow concurrent
// checkpointer can never repoint recovery at stale state.
func (s *Store) WriteCheckpoint(backend string, ck Checkpoint) (string, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(ck); err != nil {
		return "", fmt.Errorf("store: checkpoint encode: %w", err)
	}
	blob, err := Seal(backend, payload.Bytes())
	if err != nil {
		return "", err
	}
	// Widths chosen so lexicographic order == chronological order for the
	// lifetime of any plausible deployment (prune sorts these names): 10^8
	// epochs, 10^12 journaled executions.
	name := fmt.Sprintf("ckpt-%08d-%012d.snap", ck.Epoch, ck.WALSeq)
	path := filepath.Join(s.dir, checkpointDir, name)
	if err := atomicWrite(path, blob); err != nil {
		return "", err
	}
	if cur, ok := s.Latest(); ok && (cur.Epoch > ck.Epoch || (cur.Epoch == ck.Epoch && cur.WALSeq > ck.WALSeq)) {
		s.prune(cur.Checkpoint)
		return name, nil
	}
	m := Manifest{Version: 1, Checkpoint: name, Backend: backend, Epoch: ck.Epoch, WALSeq: ck.WALSeq}
	m.CRC = m.checksum()
	mj, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return "", err
	}
	if err := atomicWrite(filepath.Join(s.dir, manifestName), append(mj, '\n')); err != nil {
		return "", err
	}
	s.prune(name)
	return name, nil
}

// Recovery is everything a warm restart rebuilds from: the manifest's
// checkpoint plus the WAL tail journaled after it.
type Recovery struct {
	Manifest   Manifest
	Checkpoint Checkpoint
	Tail       []WALEntry
}

// Recover loads the latest checkpoint and the WAL entries past it. It
// returns (nil, nil) on a cold start (no manifest). The checkpoint's
// envelope is validated here (version, checksum); its backend tag is
// returned via the manifest for the caller to check against the live
// system — the inner model blob re-validates on Load anyway.
func (s *Store) Recover() (*Recovery, error) {
	m, ok := s.Latest()
	if !ok {
		return nil, nil
	}
	blob, err := os.ReadFile(filepath.Join(s.dir, checkpointDir, m.Checkpoint))
	if err != nil {
		return nil, fmt.Errorf("store: read checkpoint %s: %w", m.Checkpoint, err)
	}
	env, err := Unseal(blob)
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint %s: %w", m.Checkpoint, err)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("store: checkpoint %s decode: %v: %w", m.Checkpoint, err, fosserr.ErrSnapshotCorrupt)
	}
	rec := &Recovery{Manifest: m, Checkpoint: ck}
	err = s.wal.Replay(ck.WALSeq, func(e WALEntry) error {
		rec.Tail = append(rec.Tail, e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rec, nil
}

// prune removes checkpoint files older than the keepCheckpoint most recent,
// never touching the manifest target. Best-effort: pruning failures are not
// recovery failures.
func (s *Store) prune(current string) {
	dir := filepath.Join(s.dir, checkpointDir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names) // ckpt-<epoch>-<seq> sorts chronologically
	if len(names) <= keepCheckpoint {
		return
	}
	for _, n := range names[:len(names)-keepCheckpoint] {
		if n != current {
			_ = os.Remove(filepath.Join(dir, n))
		}
	}
}

// atomicWrite lands data at path via temp file + fsync + rename + parent
// directory fsync, so readers never observe a half-written file, a crash
// leaves either the old or the new content, and the rename itself survives
// power loss (a renamed file whose directory entry was never flushed would
// silently unwind on reboot).
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: write %s: %w", path, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: sync %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: close %s: %w", path, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("store: rename into %s: %w", path, err)
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so entry creations/renames inside it are
// durable. Best-effort on filesystems that refuse directory fsync (returns
// their error for callers that care).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}
