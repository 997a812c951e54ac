package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"github.com/foss-db/foss/internal/engine/catalog"
	"github.com/foss-db/foss/internal/fosserr"
	"github.com/foss-db/foss/internal/plan"
	"github.com/foss-db/foss/internal/query"
)

// RecordKind distinguishes WAL record types.
type RecordKind uint8

const (
	// KindFeedback journals one executed plan's identity and observed
	// latency — appended by Record before the feedback enters the execution
	// buffer.
	KindFeedback RecordKind = iota
	// KindSwap journals a hot-swap and the serving epoch it published. Replay
	// publishes at the same point in the stream — cooldown, plan memory and
	// the drift window restart where the live loop's did — and never resumes
	// below the journaled epoch.
	KindSwap
	// KindPromote and KindDemote are reserved: tier promotions/demotions were
	// once journaled under them, but no reader ever consumed the records
	// (plan memory re-derives from the feedback stream). Nothing writes them;
	// replay skips them so existing journals still recover, and the values
	// stay allocated so KindDDL keeps its number.
	KindPromote
	KindDemote
	// KindDDL journals one applied schema-evolution batch: the DDL statements
	// themselves plus the serving epoch the apply published. Replay re-applies
	// the batch to the catalog at the same point in the feedback stream the
	// live loop did, so recovered state is planned against the same schema
	// generations, at an epoch no lower than the journaled one.
	KindDDL
)

// WALEntry is one journal record. Feedback entries carry the executed
// plan's durable identity — the query itself (so replay is self-contained:
// drift-generated queries are not in any workload split), the incomplete
// plan, and the edit step — plus the observed latency. The complete plan
// and its encoding are NOT journaled: both are deterministic functions of
// (query, ICP) under a fixed backend, so replay re-derives them, keeping
// the on-disk format independent of tensor-layout changes.
type WALEntry struct {
	Seq         uint64
	Kind        RecordKind
	Fingerprint uint64
	Query       *query.Query // nil for swap records
	ICP         plan.ICP
	Step        int
	LatencyMs   float64
	TimedOut    bool
	Epoch       uint64        // swap/ddl records: the serving epoch published
	DDL         []catalog.DDL // ddl records: the applied batch (absent decodes nil)
}

// walRecordLimit bounds one record's encoded size — a corrupted length
// prefix must not drive a multi-gigabyte allocation during replay.
const walRecordLimit = 1 << 24

// WAL is the append-only feedback journal. Appends are serialized by the
// caller (the loop journals under its own ordering); Len/LastSeq are safe
// to read concurrently with appends only from the appending goroutine's
// perspective — the loop snapshots them under its lock.
type WAL struct {
	f       *os.File
	path    string
	nextSeq uint64
	count   uint64
	// end is the offset just past the last durable record. A failed append
	// truncates back to it — a torn frame left mid-file would make every
	// later (successfully fsynced) record unreachable to replay.
	end int64
	// broken latches when a failed append cannot be rolled back; further
	// appends refuse rather than acknowledge records replay will never see.
	broken bool
}

// OpenWAL opens (creating if absent) the journal at path, scans it to find
// the next sequence number, and truncates any torn tail — a crash mid-append
// leaves a half-written record that replay and future appends must not trip
// over.
func OpenWAL(path string) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open wal: %w", err)
	}
	w := &WAL{f: f, path: path, nextSeq: 1} // sequences start at 1; 0 means "before everything"
	goodEnd := int64(0)
	err = replayFile(f, func(e WALEntry, end int64) {
		w.nextSeq = e.Seq + 1
		w.count++
		goodEnd = end
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	// Drop the torn tail (if any) so appends extend a clean record boundary.
	if fi, err := f.Stat(); err == nil && fi.Size() > goodEnd {
		if err := f.Truncate(goodEnd); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate torn wal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	w.end = goodEnd
	return w, nil
}

// Append journals one entry (assigning its sequence number), syncs it to
// disk, and returns the sequence. The fsync is the durability point: a
// feedback record that Append returned for survives a crash. A failed
// append rolls the file back to the last durable record boundary; if even
// that fails the journal latches broken and refuses further appends —
// acknowledging records that a torn mid-file frame would hide from replay
// is worse than not journaling at all.
func (w *WAL) Append(e WALEntry) (uint64, error) {
	if w.broken {
		return 0, fmt.Errorf("store: wal broken by an earlier failed append (reopen to repair): %w", fosserr.ErrSnapshotCorrupt)
	}
	e.Seq = w.nextSeq
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(e); err != nil {
		return 0, fmt.Errorf("store: wal encode: %w", err)
	}
	var frame bytes.Buffer
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(payload.Len()))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload.Bytes()))
	frame.Write(hdr[:])
	frame.Write(payload.Bytes())
	if _, err := w.f.Write(frame.Bytes()); err != nil {
		w.rollback()
		return 0, fmt.Errorf("store: wal append: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.rollback()
		return 0, fmt.Errorf("store: wal sync: %w", err)
	}
	w.nextSeq = e.Seq + 1
	w.count++
	w.end += int64(frame.Len())
	return e.Seq, nil
}

// rollback truncates a possibly-torn frame back to the last durable record
// boundary after a failed append, latching broken if the file cannot be
// restored.
func (w *WAL) rollback() {
	if err := w.f.Truncate(w.end); err != nil {
		w.broken = true
		return
	}
	if _, err := w.f.Seek(w.end, io.SeekStart); err != nil {
		w.broken = true
	}
}

// Len returns the number of intact records in the journal.
func (w *WAL) Len() uint64 { return w.count }

// LastSeq returns the sequence of the most recent record, or 0 when the
// journal is empty (sequences start at 1).
func (w *WAL) LastSeq() uint64 { return w.nextSeq - 1 }

// Close closes the underlying file.
func (w *WAL) Close() error { return w.f.Close() }

// Replay streams every intact record with Seq > afterSeq, in order. A torn
// or corrupt tail ends the stream silently (those bytes never acknowledged
// as durable); corruption before the end surfaces the same way — everything
// after the first bad frame is unreachable, which is the append-only
// contract.
func (w *WAL) Replay(afterSeq uint64, fn func(WALEntry) error) error {
	f, err := os.Open(w.path)
	if err != nil {
		return fmt.Errorf("store: wal replay open: %w", err)
	}
	defer f.Close()
	var inner error
	err = replayFile(f, func(e WALEntry, _ int64) {
		if inner != nil || e.Seq <= afterSeq {
			return
		}
		inner = fn(e)
	})
	if err != nil {
		return err
	}
	return inner
}

// replayFile decodes frames from the start of f, calling fn with each intact
// entry and the file offset just past it. It stops (without error) at the
// first torn or corrupt frame.
func replayFile(f *os.File, fn func(e WALEntry, end int64)) error {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	// Counting wraps the buffered reader, not the file: the count must be
	// bytes this decoder consumed, not bytes the buffer prefetched.
	r := newCountingReader(bufio.NewReader(f))
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // clean end or torn header
			}
			return err
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > walRecordLimit {
			return nil // corrupt length prefix: treat as torn tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil // torn payload
			}
			return err
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return nil // bit rot or torn write: stop at the last good frame
		}
		var e WALEntry
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e); err != nil {
			return nil // framed but undecodable: same treatment
		}
		fn(e, r.n)
	}
}

// countingReader tracks how many bytes have been consumed, so replay knows
// the offset of the last intact record boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func newCountingReader(r io.Reader) *countingReader { return &countingReader{r: r} }

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
