// Package wal is the write-ahead journal behind durable ingest: every
// accepted batch is appended — length-prefixed, CRC-checksummed, fsync'd —
// before the engine applies it, so recovery is last snapshot + journal
// suffix. The record format is
//
//	u32 bodyLen | u32 crc32(IEEE, body) | body
//	body = u64 seq | u16 kindLen | kind | payload
//
// all little-endian. Sequence numbers are strictly increasing across the
// life of the journal (Reset after a checkpoint keeps the counter), so a
// snapshot stamped with the last applied sequence lets replay skip every
// record the checkpoint already contains.
//
// Open scans the journal and treats the first undecodable record — short
// header, bogus length, checksum mismatch, sequence regression — as a torn
// tail from a crash mid-append: the file is truncated back to the last
// intact record and the log is usable again. A torn tail is expected
// operation, not an error.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// journalName is the single journal file inside the WAL directory.
const journalName = "journal.wal"

// maxRecord bounds a single record (64 MiB); larger length prefixes are
// treated as corruption rather than allocated.
const maxRecord = 64 << 20

const headerSize = 8

// File is the slice of *os.File the journal needs, split out so the
// fault-injection harness can interpose torn writes and failing syncs.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// FS abstracts the filesystem operations behind the journal. The osFS
// default is the real filesystem; faultinject.FS wraps any FS with
// scriptable failpoints.
type FS interface {
	MkdirAll(dir string) error
	// OpenFile opens name read-write, creating it if absent.
	OpenFile(name string) (File, error)
	// SyncDir fsyncs the directory so a freshly created or renamed entry
	// survives power loss.
	SyncDir(dir string) error
}

type osFS struct{}

// osFile overrides Sync with fdatasync where the platform has it: a journal
// append only needs the record bytes and the file size durable, not the
// rest of the inode metadata, and skipping that flush measurably cheapens
// the per-append durability tax.
type osFile struct{ *os.File }

func (f osFile) Sync() error { return datasync(f.File) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
func (osFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// OSFS returns the real-filesystem implementation of FS.
func OSFS() FS { return osFS{} }

// Record is one journaled entry.
type Record struct {
	Seq     uint64
	Kind    string
	Payload []byte
}

// Log is an append-only journal. All methods are safe for concurrent use.
type Log struct {
	mu       sync.Mutex
	fs       FS
	dir      string
	f        File
	seq      uint64 // last sequence handed out
	size     int64  // end of the last intact record
	appended int64  // bytes appended since Open/Reset (checkpoint trigger)
	err      error  // sticky: set when the on-disk tail state is unknown
}

// Open creates dir if needed, opens (or creates) the journal inside it,
// scans for the last intact record, and truncates any torn tail. A nil fs
// uses the real filesystem.
func Open(dir string, fs FS) (*Log, error) {
	if fs == nil {
		fs = OSFS()
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	f, err := fs.OpenFile(filepath.Join(dir, journalName))
	if err != nil {
		return nil, fmt.Errorf("wal open: %w", err)
	}
	raw, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal open: read journal: %w", err)
	}
	lastSeq, valid := scan(raw)
	if int64(len(raw)) > valid {
		// Torn tail from a crash mid-append: drop it and carry on.
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal open: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal open: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal open: seek: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal open: sync dir: %w", err)
	}
	return &Log{fs: fs, dir: dir, f: f, seq: lastSeq, size: valid}, nil
}

// scan walks raw from the start and returns the last intact record's
// sequence and the byte offset just past it. Anything undecodable is the
// torn tail.
func scan(raw []byte) (lastSeq uint64, valid int64) {
	off := int64(0)
	for {
		rec, n, ok := decodeRecord(raw[off:], lastSeq)
		if !ok {
			return lastSeq, off
		}
		lastSeq = rec.Seq
		off += n
	}
}

// decodeRecord decodes one record from b. prevSeq guards monotonicity: a
// record whose sequence does not exceed the previous one is corruption.
func decodeRecord(b []byte, prevSeq uint64) (Record, int64, bool) {
	if len(b) < headerSize {
		return Record{}, 0, false
	}
	bodyLen := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if bodyLen < 10 || bodyLen > maxRecord || int64(len(b)) < headerSize+int64(bodyLen) {
		return Record{}, 0, false
	}
	body := b[headerSize : headerSize+int(bodyLen)]
	if crc32.ChecksumIEEE(body) != sum {
		return Record{}, 0, false
	}
	seq := binary.LittleEndian.Uint64(body[0:8])
	kindLen := binary.LittleEndian.Uint16(body[8:10])
	if int(kindLen) > len(body)-10 || seq <= prevSeq {
		return Record{}, 0, false
	}
	return Record{
		Seq:     seq,
		Kind:    string(body[10 : 10+kindLen]),
		Payload: append([]byte(nil), body[10+kindLen:]...),
	}, headerSize + int64(bodyLen), true
}

// encodeRecord builds one record's frame in a single allocation: the body
// is written after the header, then the header takes its length and CRC.
func encodeRecord(seq uint64, kind string, payload []byte) []byte {
	buf := make([]byte, headerSize+10+len(kind)+len(payload))
	body := buf[headerSize:]
	binary.LittleEndian.PutUint64(body[0:8], seq)
	binary.LittleEndian.PutUint16(body[8:10], uint16(len(kind)))
	copy(body[10:], kind)
	copy(body[10+len(kind):], payload)
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(body))
	return buf
}

// Append journals one record and fsyncs it, returning its sequence number.
// Nothing is considered accepted — and no sequence is burned — until the
// sync succeeds; on failure the file is rolled back to the last intact
// record so a later Append lands on a clean tail.
func (l *Log) Append(kind string, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, fmt.Errorf("wal append: journal unusable: %w", l.err)
	}
	if len(kind) == 0 || len(kind) > 0xFFFF {
		return 0, fmt.Errorf("wal append: bad kind length %d", len(kind))
	}
	seq := l.seq + 1
	buf := encodeRecord(seq, kind, payload)
	if int64(len(buf)) > maxRecord {
		return 0, fmt.Errorf("wal append: record of %d bytes exceeds %d limit", len(buf), maxRecord)
	}
	if _, err := l.f.Write(buf); err != nil {
		l.rollback()
		return 0, fmt.Errorf("wal append: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback()
		return 0, fmt.Errorf("wal append: sync: %w", err)
	}
	l.seq = seq
	l.size += int64(len(buf))
	l.appended += int64(len(buf))
	return seq, nil
}

// rollback restores the file to the last intact record after a failed
// append. If even that fails, the tail state is unknown and the log goes
// sticky-broken: better to refuse appends than to journal after a tear.
func (l *Log) rollback() {
	if err := l.f.Truncate(l.size); err != nil {
		l.err = fmt.Errorf("rollback truncate: %w", err)
		return
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.err = fmt.Errorf("rollback seek: %w", err)
	}
}

// Replay streams every intact record with Seq > after, in order. The
// callback's error aborts the walk and is returned.
func (l *Log) Replay(after uint64, fn func(Record) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal replay: seek: %w", err)
	}
	raw, err := io.ReadAll(l.f)
	if err != nil {
		return fmt.Errorf("wal replay: read: %w", err)
	}
	if int64(len(raw)) > l.size {
		raw = raw[:l.size]
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		return fmt.Errorf("wal replay: reseek: %w", err)
	}
	off, prev := int64(0), uint64(0)
	for off < int64(len(raw)) {
		rec, n, ok := decodeRecord(raw[off:], prev)
		if !ok {
			return fmt.Errorf("wal replay: undecodable record at offset %d inside intact region", off)
		}
		prev = rec.Seq
		off += n
		if rec.Seq <= after {
			continue
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// LastSeq returns the sequence of the last intact record (0 if none).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// EnsureSeq raises the sequence counter to at least n, so appends after a
// snapshot restore never reuse sequences the snapshot already covers.
func (l *Log) EnsureSeq(n uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n > l.seq {
		l.seq = n
	}
}

// Err returns the sticky error set when the on-disk tail state became
// unknown (a failed append whose rollback also failed). A non-nil Err
// means the journal refuses further appends and the process should be
// restarted to re-scan the tail — serve's readiness probe reports it so an
// orchestrator does exactly that.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Size returns the journal's intact byte length.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// AppendedBytes returns bytes appended since Open or the last Reset — the
// auto-checkpoint trigger.
func (l *Log) AppendedBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// Reset truncates the journal after a successful checkpoint. The sequence
// counter is preserved: the snapshot's applied-sequence stamp is what makes
// the dropped prefix redundant, and future records must sort after it.
// Losing the truncate itself is harmless — stale records replay as
// sequence-gated no-ops.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return fmt.Errorf("wal reset: journal unusable: %w", l.err)
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal reset: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal reset: seek: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal reset: sync: %w", err)
	}
	l.size = 0
	l.appended = 0
	return nil
}

// Close releases the journal file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
