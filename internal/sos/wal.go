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
	"slices"
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
//	body, row record:   u32 schema-name length, schema name, one row
//	body, batch record: u32 schema-name length | 1<<31, schema name,
//	                    u64 token, u32 row count, that many rows
//	row: u64 origin,
//	     u16 value count, then per value: u8 type tag + payload
//	     (int64/uint64/float64 as 8 bytes; string as u32 length + bytes)
//
// AppendBatch writes a one-row batch with token 0 as a row record, so
// Append's bytes are those of the log before batches existed, and replay
// reads both kinds. A token is the writer's commit mark: dsosd tags every
// record of an ingest round with the highest stream sequence in the round,
// and ReplayWALTo stops at the first batch tagged above the stream's
// durable ack floor. A row record's token is 0, below every floor.
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

// Appended returns the number of rows appended through this WAL.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append durably logs one insert as a row record, with a single Write so
// a torn write can only truncate, never interleave.
func (w *WAL) Append(schema string, obj Object, origin uint64) error {
	objs, origins := [1]Object{obj}, [1]uint64{origin}
	return w.AppendBatch(schema, objs[:], origins[:], 0)
}

// AppendBatch durably logs objs as one batch record tagged token, with
// one Write. origins is nil (every origin 0) or holds one per object. A
// batch that would outgrow the record bound is split into records that
// all carry token, which a floor-bounded replay cuts as one.
func (w *WAL) AppendBatch(schema string, objs []Object, origins []uint64, token uint64) error {
	if origins != nil && len(origins) != len(objs) {
		return fmt.Errorf("sos: wal batch of %d objects with %d origins", len(objs), len(origins))
	}
	if len(schema) >= walBatch {
		return fmt.Errorf("sos: wal schema name of %d bytes", len(schema))
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(objs) > 0 {
		rec, n, err := appendWALRecord(w.frame.Begin(), schema, objs, origins, token)
		if err != nil {
			return err
		}
		if err := w.frame.Commit(w.st, rec); err != nil {
			return fmt.Errorf("sos: wal append: %w", err)
		}
		w.appended += uint64(n)
		objs = objs[n:]
		if origins != nil {
			origins = origins[n:]
		}
	}
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
		body, err := readBody(r, int(n))
		if err != nil {
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

// readBody reads an n-byte frame body, growing the buffer as bytes arrive
// instead of trusting n up front: a corrupt length prefix costs what the
// log holds, not what the prefix claims.
func readBody(r io.Reader, n int) ([]byte, error) {
	const step = 64 << 10
	body := make([]byte, 0, min(n, step))
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), len(body)))
		}
		got, err := io.ReadFull(r, body[len(body):min(n, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}

// Value type tags in WAL records; each equals its attribute Type.
const (
	walInt64 = iota
	walUint64
	walFloat64
	walString
)

// walBatch flags a batch record in the schema-length word.
const walBatch = 1 << 31

// walMinRow and walMinValue are the fewest bytes a row and a value can
// encode to: decoders check declared counts against them before sizing
// anything from a count.
const (
	walMinRow   = 8 + 2
	walMinValue = 1 + 4
)

// appendWALRecord appends the body of one record holding a prefix of objs
// to rec (a Frame.Begin buffer) and reports how many objects it holds: all
// of them unless the body would pass the record bound, and always at least
// one.
func appendWALRecord(rec []byte, schema string, objs []Object, origins []uint64, token uint64) ([]byte, int, error) {
	originAt := func(i int) uint64 {
		if origins == nil {
			return 0
		}
		return origins[i]
	}
	if len(objs) == 1 && token == 0 {
		rec = appendU32(rec, uint32(len(schema)))
		rec = append(rec, schema...)
		rec, err := appendWALRow(rec, objs[0], originAt(0))
		return rec, 1, err
	}
	rec = appendU32(rec, uint32(len(schema))|walBatch)
	rec = append(rec, schema...)
	rec = binary.LittleEndian.AppendUint64(rec, token)
	at := len(rec)
	rec = appendU32(rec, 0) // the row count, filled in below
	n := 0
	for n < len(objs) {
		end := len(rec)
		var err error
		if rec, err = appendWALRow(rec, objs[n], originAt(n)); err != nil {
			return nil, 0, err
		}
		if n > 0 && len(rec)-frameHeader > walMaxRecord {
			rec = rec[:end]
			break
		}
		n++
	}
	binary.LittleEndian.PutUint32(rec[at:], uint32(n))
	return rec, n, nil
}

// appendWALRow appends one row to b, from its words.
func appendWALRow(b []byte, obj Object, origin uint64) ([]byte, error) {
	if obj.Len() > math.MaxUint16 {
		return nil, fmt.Errorf("sos: wal record with %d values", obj.Len())
	}
	b = binary.LittleEndian.AppendUint64(b, origin)
	b = binary.LittleEndian.AppendUint16(b, uint16(obj.Len()))
	w := obj.words()
	for i, t := range obj.types() {
		if t < walInt64 || t > walString {
			return nil, fmt.Errorf("sos: wal cannot encode value of type %s", obj.typeName(i))
		}
		b = append(b, byte(t))
		if t == TypeString {
			v := obj.str(w[i])
			b = appendU32(b, uint32(len(v)))
			b = append(b, v...)
		} else {
			b = binary.LittleEndian.AppendUint64(b, w[i])
		}
	}
	return b, nil
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// ReplayWAL reads records from the store and calls apply for each row, in
// append order. It stops silently at a torn or corrupt tail (the expected
// shape of a crash mid-write) and returns the number of rows applied plus
// the number of clean bytes consumed, so a file backing can truncate the
// tail before appending resumes. An apply error aborts the replay.
func ReplayWAL(st WALStore, apply func(schema string, obj Object, origin uint64) error) (records int, consumed int64, err error) {
	r, err := ReplayWALTo(st, math.MaxUint64, apply)
	return r.Rows, r.Consumed, err
}

// WALReplay is what a floor-bounded replay found.
type WALReplay struct {
	Rows     int    // rows applied
	Consumed int64  // bytes of the records applied: where appends resume
	Above    uint64 // the token of the first batch past the floor (0: none)
	Dropped  int    // rows in the clean records from that batch on, not applied
}

// ReplayWALTo replays like ReplayWAL, but only up to floor: it stops at
// the first batch record whose token is above floor, as if the log were
// torn there. Consumed then ends just before that record, and Dropped
// counts the rows of every clean record from it on, which the caller
// discards by truncating the log to Consumed. A record is applied whole
// or not at all: a structurally corrupt one is the torn tail.
func ReplayWALTo(st WALStore, floor uint64, apply func(schema string, obj Object, origin uint64) error) (WALReplay, error) {
	var r WALReplay
	var rows []Object
	var origins []uint64
	var tab walTable
	_, _, err := ReplayFrames(st, func(body []byte) error {
		schema, token, n, b, err := decodeWALHead(body)
		if err != nil {
			return ErrStopReplay
		}
		if r.Above != 0 || token > floor {
			if r.Above == 0 {
				r.Above = token
			}
			r.Dropped += n
			return nil
		}
		rows, origins = rows[:0], origins[:0]
		for i := 0; i < n; i++ {
			var obj Object
			var origin uint64
			if obj, origin, b, err = tab.decodeRow(b); err != nil {
				return ErrStopReplay
			}
			rows, origins = append(rows, obj), append(origins, origin)
		}
		if len(b) != 0 {
			return ErrStopReplay // trailing bytes: corrupt structure
		}
		for i, obj := range rows {
			if err := apply(schema, obj, origins[i]); err != nil {
				return err
			}
			r.Rows++
		}
		r.Consumed += int64(frameHeader + len(body))
		return nil
	})
	if err != nil {
		return r, fmt.Errorf("sos: wal replay: %w", err)
	}
	return r, nil
}

// errShortRecord is a record body that ends before its structure does.
var errShortRecord = errors.New("sos: short wal record")

// decodeWALHead reads a record body's schema word and name and, for a
// batch, its token and row count — checked against the bytes left before
// anything is sized from it. rest holds the n rows.
func decodeWALHead(b []byte) (schema string, token uint64, n int, rest []byte, err error) {
	if len(b) < 4 {
		return "", 0, 0, nil, errShortRecord
	}
	word := binary.LittleEndian.Uint32(b)
	sn := word &^ walBatch
	b = b[4:]
	if uint32(len(b)) < sn {
		return "", 0, 0, nil, errShortRecord
	}
	schema = string(b[:sn])
	b = b[sn:]
	if word&walBatch == 0 {
		return schema, 0, 1, b, nil
	}
	if len(b) < 12 {
		return "", 0, 0, nil, errShortRecord
	}
	token = binary.LittleEndian.Uint64(b)
	count := binary.LittleEndian.Uint32(b[8:])
	b = b[12:]
	if uint64(count)*walMinRow > uint64(len(b)) {
		return "", 0, 0, nil, fmt.Errorf("sos: wal batch of %d rows in %d bytes", count, len(b))
	}
	return schema, token, int(count), b, nil
}

// walTable is a replay's string table: the rows it decodes index it, so a
// string repeated across the log is allocated once. It only grows, so a
// row keeps a valid view of it after later rows add strings. typ is the
// last row's types, which the next row shares when it has the same.
type walTable struct {
	dict dict
	typ  *rowType
	cur  []Type // scratch: the types of the row being decoded
}

// decodeRow reads one row off the front of b.
func (tab *walTable) decodeRow(b []byte) (obj Object, origin uint64, rest []byte, err error) {
	if len(b) < walMinRow {
		return Object{}, 0, nil, errShortRecord
	}
	origin = binary.LittleEndian.Uint64(b)
	nvals := int(binary.LittleEndian.Uint16(b[8:]))
	b = b[walMinRow:]
	if nvals*walMinValue > len(b) {
		return Object{}, 0, nil, errShortRecord
	}
	w := make([]uint64, nvals)
	tab.cur = tab.cur[:0]
	for i := range w {
		if len(b) < 1 {
			return Object{}, 0, nil, errShortRecord
		}
		tag := Type(b[0])
		b = b[1:]
		switch tag {
		case walInt64, walUint64, walFloat64:
			if len(b) < 8 {
				return Object{}, 0, nil, errShortRecord
			}
			w[i] = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case walString:
			if len(b) < 4 {
				return Object{}, 0, nil, errShortRecord
			}
			n := binary.LittleEndian.Uint32(b)
			b = b[4:]
			if uint32(len(b)) < n {
				return Object{}, 0, nil, errShortRecord
			}
			w[i] = tab.dict.internBytes(b[:n])
			b = b[n:]
		default:
			return Object{}, 0, nil, fmt.Errorf("sos: unknown wal value tag %d", tag)
		}
		tab.cur = append(tab.cur, tag)
	}
	if tab.typ == nil || !slices.Equal(tab.cur, tab.typ.types) {
		tab.typ = &rowType{slices.Clone(tab.cur)}
	}
	return Object{w: first(w), strs: first(tab.dict.strs), typ: tab.typ}, origin, b, nil
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
