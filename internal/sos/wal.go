package sos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sync"
)

// Write-ahead log: the durability layer under a dsosd daemon. Every insert
// is appended as a self-describing, checksummed record before the daemon
// acknowledges it; after a crash, replaying the log rebuilds the container
// exactly (indices are rebuilt from their specs, as with snapshots). The
// backing is pluggable: a MemWAL is the "virtual file" the deterministic
// simulation uses (it survives a simulated daemon crash because it lives
// outside the daemon's volatile state), and a FileWAL is a real
// append-only file for cmd/dsosd.
//
// Record layout (little endian):
//
//	u32 body length | u32 CRC-32 (IEEE) of body | body
//	body: u32 schema-name length, schema name,
//	      u64 origin,
//	      u16 value count, then per value: u8 type tag + payload
//	      (int64/uint64/float64 as 8 bytes; string as u32 length + bytes)
//
// A torn tail — a record cut short or corrupted by a crash mid-write — is
// detected by the length/CRC pair; replay stops there and reports how many
// bytes were consumed so a file backing can truncate the garbage.

// WALStore is the durable backing of a write-ahead log: appends go through
// Write, recovery reads the stored bytes from the start via Open.
type WALStore interface {
	io.Writer
	Open() (io.ReadCloser, error)
}

// walMaxRecord bounds one record so a corrupt length prefix cannot ask for
// gigabytes (mirrors the transport's frame bound).
const walMaxRecord = 16 << 20

// WAL appends insert records to a WALStore. It is safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	st       WALStore
	frame    Frame // reused record buffer (guarded by mu)
	appended uint64
}

// NewWAL creates a write-ahead log over the given backing.
func NewWAL(st WALStore) *WAL {
	return &WAL{st: st}
}

// Store returns the backing store.
func (w *WAL) Store() WALStore { return w.st }

// Appended returns the number of records appended through this WAL.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append durably logs one insert. The record is written with a single
// Write call so a torn write can only truncate, never interleave.
func (w *WAL) Append(schema string, obj Object, origin uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	rec, err := appendWALBody(w.frame.Begin(), schema, obj, origin)
	if err != nil {
		return err
	}
	if err := w.frame.Commit(w.st, rec); err != nil {
		return fmt.Errorf("sos: wal append: %w", err)
	}
	w.appended++
	return nil
}

// frameHeader is the length+CRC prefix of every framed record.
const frameHeader = 8

// Frame builds length+CRC framed records in one reusable buffer: Begin
// returns the buffer positioned past the reserved header, the caller
// appends the record body to it, and Commit fills the header in and hands
// header and body to the store in a single Write, so a torn write can
// only truncate, never interleave. It is the generic layer under
// WAL.Append; other durable logs (the streams package's durable-stream
// segments) share it so every append-only file in the system has the same
// framing and the same torn-tail recovery story. A Frame is not safe for
// concurrent use: its owner keeps one under the lock it already holds
// across an append, and a steady-state append then allocates nothing.
type Frame struct{ buf []byte }

// Begin starts a record and returns the buffer to append its body to.
func (f *Frame) Begin() []byte {
	return append(f.buf[:0], make([]byte, frameHeader)...)
}

// Commit frames rec — the slice Begin returned, with the body appended —
// and writes it to the store.
func (f *Frame) Commit(st WALStore, rec []byte) error {
	f.buf = rec // keep whatever the appends grew
	body := rec[frameHeader:]
	if len(body) == 0 || len(body) > walMaxRecord {
		return fmt.Errorf("sos: frame body of %d bytes", len(body))
	}
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	_, err := st.Write(rec)
	return err
}

// AppendFrame writes body as one framed record: the one-shot form of
// Frame for callers without a buffer to reuse.
func AppendFrame(st WALStore, body []byte) error {
	var f Frame
	return f.Commit(st, append(f.Begin(), body...))
}

// ErrStopReplay, returned by a ReplayFrames apply callback, stops the
// replay cleanly at the frame *before* the current one: the frame is not
// counted and its bytes are not consumed, exactly as if it were torn.
// Decoders use it to treat structurally corrupt (but CRC-clean) records
// as the tail of a crash.
var ErrStopReplay = errors.New("sos: stop replay")

// ReplayFrames reads length+CRC framed records from the store and calls
// apply for each body, in append order. It stops silently at a torn or
// corrupt tail and returns the number of frames applied plus the clean
// bytes consumed, so a file backing can truncate the garbage. An apply
// error aborts the replay, except ErrStopReplay which stops it cleanly.
func ReplayFrames(st WALStore, apply func(body []byte) error) (frames int, consumed int64, err error) {
	r, err := st.Open()
	if err != nil {
		return 0, 0, fmt.Errorf("sos: wal open: %w", err)
	}
	defer r.Close()
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return frames, consumed, nil // clean EOF or torn header
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n == 0 || n > walMaxRecord {
			return frames, consumed, nil // corrupt length: torn tail
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return frames, consumed, nil // torn body
		}
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:8]) {
			return frames, consumed, nil // corrupt body
		}
		if aerr := apply(body); aerr != nil {
			if errors.Is(aerr, ErrStopReplay) {
				return frames, consumed, nil
			}
			return frames, consumed, aerr
		}
		frames++
		consumed += int64(8 + n)
	}
}

// Value type tags in WAL records.
const (
	walInt64 = iota
	walUint64
	walFloat64
	walString
)

// appendWALBody appends one insert record's body to b.
func appendWALBody(b []byte, schema string, obj Object, origin uint64) ([]byte, error) {
	if len(obj) > math.MaxUint16 {
		return nil, fmt.Errorf("sos: wal record with %d values", len(obj))
	}
	b = appendU32(b, uint32(len(schema)))
	b = append(b, schema...)
	b = binary.LittleEndian.AppendUint64(b, origin)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(obj)))
	for _, v := range obj {
		switch val := v.(type) {
		case int64:
			b = append(b, walInt64)
			b = binary.LittleEndian.AppendUint64(b, uint64(val))
		case uint64:
			b = append(b, walUint64)
			b = binary.LittleEndian.AppendUint64(b, val)
		case float64:
			b = append(b, walFloat64)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(val))
		case string:
			b = append(b, walString)
			b = appendU32(b, uint32(len(val)))
			b = append(b, val...)
		default:
			return nil, fmt.Errorf("sos: wal cannot encode value of type %T", v)
		}
	}
	return b, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// ReplayWAL reads records from the store and calls apply for each, in
// append order. It stops silently at a torn or corrupt tail (the expected
// shape of a crash mid-write) and returns the number of records applied
// plus the number of clean bytes consumed, so a file backing can truncate
// the tail before appending resumes. An apply error aborts the replay.
func ReplayWAL(st WALStore, apply func(schema string, obj Object, origin uint64) error) (records int, consumed int64, err error) {
	records, consumed, err = ReplayFrames(st, func(body []byte) error {
		schema, obj, origin, derr := decodeWALBody(body)
		if derr != nil {
			return ErrStopReplay // corrupt structure: treat as torn tail
		}
		return apply(schema, obj, origin)
	})
	if err != nil {
		return records, consumed, fmt.Errorf("sos: wal replay: %w", err)
	}
	return records, consumed, nil
}

func decodeWALBody(b []byte) (schema string, obj Object, origin uint64, err error) {
	fail := fmt.Errorf("sos: short wal record")
	if len(b) < 4 {
		return "", nil, 0, fail
	}
	sn := binary.LittleEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < sn {
		return "", nil, 0, fail
	}
	schema = string(b[:sn])
	b = b[sn:]
	if len(b) < 10 {
		return "", nil, 0, fail
	}
	origin = binary.LittleEndian.Uint64(b)
	nvals := binary.LittleEndian.Uint16(b[8:])
	b = b[10:]
	obj = make(Object, 0, nvals)
	for i := 0; i < int(nvals); i++ {
		if len(b) < 1 {
			return "", nil, 0, fail
		}
		tag := b[0]
		b = b[1:]
		switch tag {
		case walInt64, walUint64, walFloat64:
			if len(b) < 8 {
				return "", nil, 0, fail
			}
			u := binary.LittleEndian.Uint64(b)
			b = b[8:]
			switch tag {
			case walInt64:
				obj = append(obj, int64(u))
			case walUint64:
				obj = append(obj, u)
			default:
				obj = append(obj, math.Float64frombits(u))
			}
		case walString:
			if len(b) < 4 {
				return "", nil, 0, fail
			}
			n := binary.LittleEndian.Uint32(b)
			b = b[4:]
			if uint32(len(b)) < n {
				return "", nil, 0, fail
			}
			obj = append(obj, string(b[:n]))
			b = b[n:]
		default:
			return "", nil, 0, fmt.Errorf("sos: unknown wal value tag %d", tag)
		}
	}
	if len(b) != 0 {
		return "", nil, 0, fmt.Errorf("sos: trailing bytes in wal record")
	}
	return schema, obj, origin, nil
}

// MemWAL is an in-memory WALStore — the simulation's "virtual file". It
// lives outside the daemon whose inserts it logs, so a simulated daemon
// crash (which discards the daemon's container) leaves it intact, exactly
// like a disk surviving a process kill. Truncate simulates a torn write.
type MemWAL struct {
	mu  sync.Mutex
	buf []byte
}

// NewMemWAL creates an empty in-memory WAL backing.
func NewMemWAL() *MemWAL { return &MemWAL{} }

// Write implements WALStore.
func (m *MemWAL) Write(p []byte) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = append(m.buf, p...)
	return len(p), nil
}

// Open implements WALStore: it reads a snapshot of the current contents.
func (m *MemWAL) Open() (io.ReadCloser, error) {
	m.mu.Lock()
	snap := append([]byte(nil), m.buf...)
	m.mu.Unlock()
	return io.NopCloser(bytes.NewReader(snap)), nil
}

// Len returns the stored byte count.
func (m *MemWAL) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// Truncate cuts the log to n bytes — tests use it to simulate a crash that
// tore the last record mid-write.
func (m *MemWAL) Truncate(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n >= 0 && n < len(m.buf) {
		m.buf = m.buf[:n]
	}
}

// FileWAL is a real-file WALStore for cmd/dsosd: appends go to an open
// file, recovery re-reads it from the start.
type FileWAL struct {
	path string
	f    *os.File
}

// OpenFileWAL opens (creating if needed) the WAL file at path for
// appending. Call ReplayWAL before writing so the append position sits
// after the last clean record (Reset truncates a torn tail).
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return &FileWAL{path: path, f: f}, nil
}

// Write implements WALStore.
func (w *FileWAL) Write(p []byte) (int, error) { return w.f.Write(p) }

// Open implements WALStore with an independent read handle.
func (w *FileWAL) Open() (io.ReadCloser, error) { return os.Open(w.path) }

// Reset truncates the file to n bytes (discarding a torn tail found by
// ReplayWAL) and repositions appends there.
func (w *FileWAL) Reset(n int64) error {
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	_, err := w.f.Seek(n, io.SeekStart)
	return err
}

// Sync flushes the file to stable storage.
func (w *FileWAL) Sync() error { return w.f.Sync() }

// Close closes the file handle.
func (w *FileWAL) Close() error { return w.f.Close() }
