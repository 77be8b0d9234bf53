package sos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
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
// Record layout (fixed-width words little endian, uvarints unsigned LEB128;
// a zigzag varint is the uvarint of a word difference d as (d<<1)^(d>>63)):
//
//	u32 body length | u32 CRC-32 (IEEE) of body | body
//	body, v2 batch record (the one AppendBatch writes):
//	  u32 schema-name length | 1<<31 | 1<<30, schema name, u8 version 2,
//	  uvarint token, uvarint row count, uvarint type count, a u8 type per
//	  attribute, uvarint dictBase, uvarint delta count, per delta string a
//	  uvarint length and the bytes, then the rows. A row is its origin,
//	  then per attribute: a string as its uvarint log-dictionary id, an
//	  int64 or uint64 — and the origin — as the zigzag varint of its word
//	  less the row before's, a float64 as the uvarint of its bits XOR the
//	  row before's (the row before the first is all zero).
//	body, v1 row record: u32 schema-name length, schema name, one v1 row
//	body, v1 batch record: u32 schema-name length | 1<<31, schema name,
//	  u64 token, u32 row count, that many v1 rows
//	v1 row: u64 origin, u16 value count, then per value a u8 type tag and
//	  the payload (a number as 8 bytes, a string as u32 length + bytes)
//
// The log dictionary is the strings the log's v2 records have written since
// it was created or last truncated, each at its position. A record's delta
// holds only the strings new to the log, and dictBase is the dictionary's
// size before them. Replay rebuilds the dictionary from the deltas it
// applies; a record whose dictBase is not the size it has read is corrupt,
// the torn tail, so a writer that diverged from its log cuts it visibly
// instead of decoding wrong strings. A writer appending to a replayed log
// starts from the dictionary the replay read (ResumeWAL). Replay still
// reads v1 records, whose strings are inline and outside the dictionary.
//
// A token is the writer's commit mark: dsosd tags every record of an
// ingest round with the highest stream sequence in the round, and
// ReplayWALTo stops at the first batch tagged above the stream's durable
// ack floor. A v1 row record's token is 0, below every floor.
//
// A torn tail — a record cut short or corrupted by a crash mid-write — is
// detected by the length/CRC pair; replay stops there and reports how many
// bytes were consumed so a file backing can truncate the garbage.

// WALStore is the durable backing of a write-ahead log: appends go through
// Write, recovery reads the stored bytes from the start via Open, and a
// log that kept where it wrote a record reads that one back via ReadAt.
// Reset cuts the log to its first n bytes, where appends then resume (a
// replay's torn tail goes). Replace swaps in, whole, the bytes fill writes
// aside: a reader or a crash sees the old log or the new one, never a mix.
type WALStore interface {
	io.Writer
	io.ReaderAt
	Open() (io.ReadCloser, error)
	Reset(n int64) error
	Replace(fill func(io.Writer) error) error
}

// walMaxRecord bounds one record so a corrupt length prefix cannot ask for
// gigabytes (mirrors the transport's frame bound).
const walMaxRecord = 16 << 20

// WAL appends insert records to a WALStore. It is safe for concurrent use.
type WAL struct {
	mu       sync.Mutex
	st       WALStore
	frame    Frame    // reused record buffer (guarded by mu, as is the rest)
	rows     []byte   // scratch: the rows of the record being built
	prev     []uint64 // scratch: the row before's origin and words
	dict     dict     // the log dictionary
	appended uint64
}

// NewWAL creates a write-ahead log over the given backing, which holds no
// v2 record: a log that does is appended to through ResumeWAL.
func NewWAL(st WALStore) *WAL {
	return &WAL{st: st}
}

// ResumeWAL creates a write-ahead log that appends to st behind the
// records r replayed from it, starting from the log dictionary they left.
// The caller has cut st back to r.Consumed.
func ResumeWAL(st WALStore, r WALReplay) *WAL {
	w := &WAL{st: st, dict: dict{strs: slices.Clone(r.dict), ids: make(map[string]uint32, len(r.dict))}}
	for i, s := range r.dict {
		w.dict.ids[s] = uint32(i) // a string the log repeats: either id reads it
	}
	return w
}

// Store returns the backing store.
func (w *WAL) Store() WALStore { return w.st }

// Appended returns the number of rows appended through this WAL.
func (w *WAL) Appended() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// Append durably logs one insert as a one-row batch with token 0, with a
// single Write so a torn write can only truncate, never interleave.
func (w *WAL) Append(schema string, obj Object, origin uint64) error {
	objs, origins := [1]Object{obj}, [1]uint64{origin}
	return w.AppendBatch(schema, objs[:], origins[:], 0)
}

// AppendBatch durably logs objs as one batch record tagged token, with
// one Write. origins is nil (every origin 0) or holds one per object. A
// batch that would outgrow the record bound, or whose rows change types,
// is split into records that all carry token, which a floor-bounded replay
// cuts as one; each record carries the strings it is the first to use.
func (w *WAL) AppendBatch(schema string, objs []Object, origins []uint64, token uint64) error {
	if origins != nil && len(origins) != len(objs) {
		return fmt.Errorf("sos: wal batch of %d objects with %d origins", len(objs), len(origins))
	}
	if len(schema) >= walV2 {
		return fmt.Errorf("sos: wal schema name of %d bytes", len(schema))
	}
	for _, obj := range objs {
		for i, t := range obj.types() {
			if t < TypeInt64 || t > TypeString {
				return fmt.Errorf("sos: wal cannot encode value of type %s", obj.typeName(i))
			}
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for len(objs) > 0 {
		base := len(w.dict.strs)
		rec, n := w.appendRecord(w.frame.Begin(), schema, objs, origins, token)
		if err := w.frame.Commit(w.st, rec); err != nil {
			w.dict.truncate(base) // the log holds none of the record's strings
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

// FrameHeader is the length+CRC prefix of every framed record.
const FrameHeader = 8

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
	return append(f.buf[:0], make([]byte, FrameHeader)...)
}

// Commit frames rec — the slice Begin returned, with the body appended —
// and writes it to st, a store or any other writer.
func (f *Frame) Commit(st io.Writer, rec []byte) error {
	f.buf = rec // keep whatever the appends grew
	body := rec[FrameHeader:]
	if len(body) == 0 || len(body) > walMaxRecord {
		return fmt.Errorf("sos: frame body of %d bytes", len(body))
	}
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(body))
	_, err := st.Write(rec)
	return err
}

// ReadFrameAt reads back the framed record at offset off whose body is n
// bytes long, into a fresh buffer, and checks its length and CRC: the
// random-access twin of ReplayFrames, for a log that kept where it wrote.
func ReadFrameAt(r io.ReaderAt, off int64, n uint32) ([]byte, error) {
	rec := make([]byte, FrameHeader+int(n))
	if got, err := r.ReadAt(rec, off); got != len(rec) {
		return nil, fmt.Errorf("sos: read frame at %d: %w", off, err)
	}
	if binary.LittleEndian.Uint32(rec) != n || binary.LittleEndian.Uint32(rec[4:]) != crc32.ChecksumIEEE(rec[FrameHeader:]) {
		return nil, fmt.Errorf("sos: corrupt frame at %d", off)
	}
	return rec[FrameHeader:], nil
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

// Value type tags in v1 WAL records; each equals its attribute Type.
const (
	walInt64 = iota
	walUint64
	walFloat64
	walString
)

// walBatch flags a batch record in the schema-length word, and walV2 (with
// walBatch) a v2 one, whose version byte follows the schema name.
const (
	walBatch   = 1 << 31
	walV2      = 1 << 30
	walVersion = 2
)

// walMinRow and walMinValue are the fewest bytes a v1 row and value can
// encode to: decoders check declared counts against them before sizing
// anything from a count. A v2 value, and a v2 row's origin, is at least a
// byte.
const (
	walMinRow   = 8 + 2
	walMinValue = 1 + 4
)

// appendRecord appends the body of one v2 record holding a prefix of objs
// to rec (a Frame.Begin buffer) and reports how many objects it holds: the
// longest run of rows of one type list whose body stays within the record
// bound, and always at least one. The strings the rows are the first to
// use join the log dictionary.
func (w *WAL) appendRecord(rec []byte, schema string, objs []Object, origins []uint64, token uint64) ([]byte, int) {
	typ, types := objs[0].typ, objs[0].types()
	base := len(w.dict.strs)
	// The body less the rows and the delta's strings, at its longest.
	size := 4 + len(schema) + 1 + 6*binary.MaxVarintLen64 + len(types)
	w.rows, w.prev = w.rows[:0], append(w.prev[:0], make([]uint64, 1+len(types))...)
	n := 0
	for ; n < len(objs); n++ {
		if objs[n].typ != typ && !slices.Equal(objs[n].types(), types) {
			break
		}
		end, added := len(w.rows), len(w.dict.strs)
		var origin uint64
		if origins != nil {
			origin = origins[n]
		}
		w.rows = w.appendRow(w.rows, objs[n], origin)
		for _, s := range w.dict.strs[added:] {
			size += binary.MaxVarintLen32 + len(s)
		}
		if n > 0 && size+len(w.rows) > walMaxRecord {
			w.rows = w.rows[:end]
			w.dict.truncate(added)
			break
		}
	}
	rec = appendU32(rec, uint32(len(schema))|walBatch|walV2)
	rec = append(rec, schema...)
	rec = append(rec, walVersion)
	rec = binary.AppendUvarint(rec, token)
	rec = binary.AppendUvarint(rec, uint64(n))
	rec = binary.AppendUvarint(rec, uint64(len(types)))
	for _, t := range types {
		rec = append(rec, byte(t))
	}
	rec = binary.AppendUvarint(rec, uint64(base))
	rec = binary.AppendUvarint(rec, uint64(len(w.dict.strs)-base))
	for _, s := range w.dict.strs[base:] {
		rec = binary.AppendUvarint(rec, uint64(len(s)))
		rec = append(rec, s...)
	}
	return append(rec, w.rows...), n
}

// appendRow appends the row of obj and origin to b, each word against the
// row before's (w.prev: the origin, then the attributes), which it becomes.
func (w *WAL) appendRow(b []byte, obj Object, origin uint64) []byte {
	b, w.prev[0] = binary.AppendUvarint(b, zigzag(origin-w.prev[0])), origin
	prev := w.prev[1:]
	for i, t := range obj.types() {
		v := obj.word(i)
		switch t {
		case TypeString:
			b = binary.AppendUvarint(b, w.dict.from(obj.strs, v))
			continue
		case TypeFloat64:
			b = binary.AppendUvarint(b, v^prev[i])
		default:
			b = binary.AppendUvarint(b, zigzag(v-prev[i]))
		}
		prev[i] = v
	}
	return b
}

// zigzag maps a difference of words, read as an int64, to a uint64 that
// is small when the difference is near zero either way; unzigzag inverts it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

// WALReplay is what a floor-bounded replay found.
type WALReplay struct {
	Rows     int    // rows applied
	Consumed int64  // bytes of the records applied: where appends resume
	Above    uint64 // the token of the first batch past the floor (0: none)
	Dropped  int    // rows in the clean records from that batch on, not applied

	dict []string // the log dictionary the applied records left (ResumeWAL)
}

// ReplayWALTo reads records from the store and calls apply for each row,
// in append order, up to floor. It stops silently at a torn or corrupt
// tail (the expected shape of a crash mid-write), and at the first batch
// record whose token is above floor, as if the log were torn there. Consumed then ends just before that record, and Dropped
// counts the rows of every clean record from it on, which the caller
// discards by truncating the log to Consumed. A record is applied whole
// or not at all: a structurally corrupt one is the torn tail.
func ReplayWALTo(st WALStore, floor uint64, apply func(schema string, obj Object, origin uint64) error) (WALReplay, error) {
	var r WALReplay
	var rows []Object
	var origins []uint64
	var tab walTable
	_, _, err := ReplayFrames(st, func(body []byte) error {
		h, err := decodeWALHead(body, &tab.dict)
		if err != nil {
			return ErrStopReplay
		}
		if r.Above != 0 || h.token > floor {
			if r.Above == 0 {
				r.Above = h.token
			}
			r.Dropped += h.rows
			return nil
		}
		b, base := h.rest, len(tab.log)
		decode := tab.decodeRow
		if h.v2 {
			b, err = tab.beginV2(b, h.rows)
			decode = tab.decodeRowV2
		}
		rows, origins = rows[:0], origins[:0]
		for i := 0; i < h.rows && err == nil; i++ {
			var obj Object
			var origin uint64
			if obj, origin, b, err = decode(b); err == nil {
				rows, origins = append(rows, obj), append(origins, origin)
			}
		}
		if err != nil || len(b) != 0 { // a corrupt structure, or trailing bytes
			tab.log = tab.log[:base] // the dictionary ends before the record
			return ErrStopReplay
		}
		for i, obj := range rows {
			if err := apply(h.schema, obj, origins[i]); err != nil {
				return err
			}
			r.Rows++
		}
		r.Consumed += int64(FrameHeader + len(body))
		return nil
	})
	r.dict = tab.log
	if err != nil {
		return r, fmt.Errorf("sos: wal replay: %w", err)
	}
	return r, nil
}

// errShortRecord is a record body that ends before its structure does.
var errShortRecord = errors.New("sos: short wal record")

// walHead is the head of a record body.
type walHead struct {
	schema string
	token  uint64
	rows   int    // declared, and checked against the bytes left
	v2     bool   // a v2 batch record
	rest   []byte // v1: the rows; v2: the type list, the delta and the rows
}

// decodeWALHead reads a record body's schema word and name and, for a
// batch, its token and row count — checked against the bytes left before
// anything is sized from it. The schema name is interned in names.
func decodeWALHead(b []byte, names *dict) (h walHead, err error) {
	if len(b) < 4 {
		return h, errShortRecord
	}
	word := binary.LittleEndian.Uint32(b)
	sn := word &^ (walBatch | walV2)
	b = b[4:]
	if uint32(len(b)) < sn {
		return h, errShortRecord
	}
	h.schema = names.strs[names.internBytes(b[:sn])]
	h.rest = b[sn:]
	switch word & (walBatch | walV2) {
	case 0:
		h.rows = 1
	case walBatch:
		if len(h.rest) < 12 {
			return h, errShortRecord
		}
		h.token, h.rows = binary.LittleEndian.Uint64(h.rest), int(binary.LittleEndian.Uint32(h.rest[8:]))
		if h.rest = h.rest[12:]; uint64(h.rows)*walMinRow > uint64(len(h.rest)) {
			return h, fmt.Errorf("sos: wal batch of %d rows in %d bytes", h.rows, len(h.rest))
		}
	case walBatch | walV2:
		if len(h.rest) < 1 || h.rest[0] != walVersion {
			return h, errors.New("sos: unknown wal record version")
		}
		var count uint64
		if h.token, h.rest, err = uvarint(h.rest[1:]); err == nil {
			count, h.rest, err = uvarint(h.rest)
		}
		if err != nil || count > uint64(len(h.rest)) { // a row is at least a byte
			return h, errShortRecord
		}
		h.rows, h.v2 = int(count), true
	default:
		return h, errors.New("sos: unknown wal record kind")
	}
	return h, nil
}

// uvarint reads a uvarint off the front of b.
func uvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errShortRecord
	}
	return v, b[n:], nil
}

// walTable is a replay's string tables and row memory. log is the log
// dictionary, which v2 rows index; dict interns v1 rows' strings, so a
// string repeated across the log is allocated once. Both only grow, so a
// row keeps a valid view after later rows add strings. Rows are carved
// from pointer-free chunks that are never reused. typ is the last row's
// types, which the next row shares when it has the same.
type walTable struct {
	log    []string
	dict   dict // and the schema names
	typ    *rowType
	cur    []Type   // scratch: the types being decoded
	prev   []uint64 // the v2 row before's words, and its origin
	origin uint64
	chunk  []uint64
}

// carve returns the words of a row of n attributes.
func (tab *walTable) carve(n int) []uint64 {
	if len(tab.chunk) < n {
		tab.chunk = make([]uint64, max(n, pageWords))
	}
	w := tab.chunk[:n:n]
	tab.chunk = tab.chunk[n:]
	return w
}

// share sets typ to the row type of cur, unless typ already is.
func (tab *walTable) share() {
	if tab.typ == nil || !slices.Equal(tab.cur, tab.typ.types) {
		tab.typ = &rowType{types: slices.Clone(tab.cur)}
	}
}

// beginV2 reads a v2 record's type list and dictionary delta off the front
// of b, ahead of its n rows.
func (tab *walTable) beginV2(b []byte, n int) ([]byte, error) {
	nt, b, err := uvarint(b)
	if err != nil || nt > uint64(len(b)) {
		return nil, errShortRecord
	}
	tab.cur = tab.cur[:0]
	for _, t := range b[:nt] {
		if t > walString {
			return nil, fmt.Errorf("sos: unknown wal value type %d", t)
		}
		tab.cur = append(tab.cur, Type(t))
	}
	tab.share()
	base, b, err := uvarint(b[nt:])
	if err != nil || base != uint64(len(tab.log)) {
		return nil, errors.New("sos: wal record's dictionary base is not the log's")
	}
	nd, b, err := uvarint(b)
	if err != nil || nd > uint64(len(b)) {
		return nil, errShortRecord
	}
	tab.log = slices.Grow(tab.log, int(nd))
	for range nd {
		l, rest, err := uvarint(b)
		if err != nil || l > uint64(len(rest)) {
			return nil, errShortRecord
		}
		tab.log, b = append(tab.log, string(rest[:l])), rest[l:]
	}
	if uint64(n)*(1+nt) > uint64(len(b)) {
		return nil, errShortRecord
	}
	tab.prev, tab.origin = append(tab.prev[:0], make([]uint64, nt)...), 0
	return b, nil
}

// decodeRowV2 reads one v2 row off the front of b.
func (tab *walTable) decodeRowV2(b []byte) (Object, uint64, []byte, error) {
	d, k := binary.Uvarint(b)
	if k <= 0 {
		return Object{}, 0, nil, errShortRecord
	}
	b, tab.origin = b[k:], tab.origin+unzigzag(d)
	w := tab.carve(len(tab.prev))
	for i, t := range tab.typ.types {
		u, k := binary.Uvarint(b)
		if k <= 0 {
			return Object{}, 0, nil, errShortRecord
		}
		b = b[k:]
		switch t {
		case TypeString:
			if u >= uint64(len(tab.log)) {
				return Object{}, 0, nil, errors.New("sos: wal string id past the log dictionary")
			}
			w[i] = u
			continue
		case TypeFloat64:
			u ^= tab.prev[i]
		default:
			u = tab.prev[i] + unzigzag(u)
		}
		w[i], tab.prev[i] = u, u
	}
	return wordRow(w, first(tab.log), tab.typ), tab.origin, b, nil
}

// decodeRow reads one v1 row off the front of b.
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
	w := tab.carve(nvals)
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
	tab.share()
	return wordRow(w, first(tab.dict.strs), tab.typ), origin, b, nil
}

// MemWAL is an in-memory WALStore — the simulation's "virtual file". It
// lives outside the daemon whose inserts it logs, so a simulated daemon
// crash (which discards the daemon's container) leaves it intact, exactly
// like a disk surviving a process kill. Reset simulates a torn write.
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

// ReadAt implements WALStore.
func (m *MemWAL) ReadAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return bytes.NewReader(m.buf).ReadAt(p, off)
}

// Len returns the stored byte count.
func (m *MemWAL) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// Reset implements WALStore; tests also use it to tear the last record.
func (m *MemWAL) Reset(n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = m.buf[:min(max(n, 0), int64(len(m.buf)))]
	return nil
}

// Replace implements WALStore: what fill writes becomes the log.
func (m *MemWAL) Replace(fill func(io.Writer) error) error {
	var b bytes.Buffer
	if err := fill(&b); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.buf = b.Bytes()
	return nil
}

// FileWAL is a real-file WALStore for cmd/dsosd: appends go to an open
// file, recovery re-reads it from the start.
type FileWAL struct {
	path string
	f    *os.File
}

// OpenFileWAL opens (creating if needed) the WAL file at path for
// appending, and removes the temporary a Replace cut short left beside it.
// Call ReplayWALTo before writing so the append position sits after the
// last clean record (Reset truncates a torn tail).
func OpenFileWAL(path string) (*FileWAL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	os.Remove(path + ".tmp")
	return &FileWAL{path: path, f: f}, nil
}

// Write implements WALStore.
func (w *FileWAL) Write(p []byte) (int, error) { return w.f.Write(p) }

// ReadAt implements WALStore.
func (w *FileWAL) ReadAt(p []byte, off int64) (int, error) { return w.f.ReadAt(p, off) }

// Open implements WALStore with an independent read handle.
func (w *FileWAL) Open() (io.ReadCloser, error) { return os.Open(w.path) }

// Reset implements WALStore: the file is truncated to n bytes and appends
// resume there.
func (w *FileWAL) Reset(n int64) error {
	if err := w.f.Truncate(n); err != nil {
		return err
	}
	_, err := w.f.Seek(n, io.SeekStart)
	return err
}

// Replace implements WALStore through ReplaceFile.
func (w *FileWAL) Replace(fill func(io.Writer) error) error {
	f, err := ReplaceFile(w.path, fill)
	if f != nil {
		w.f.Close()
		w.f = f
	}
	return err
}

// ReplaceFile replaces the file at path with what fill writes to
// path+".tmp", synced, renamed over path, and the directory synced: a
// crash leaves the old file or the new one, and at most the temporary. A
// failure before the rename removes the temporary; after it, the new file
// is returned open at its end, with any error of the directory sync.
func ReplaceFile(path string, fill func(io.Writer) error) (*os.File, error) {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err = fill(f); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, err
	}
	d, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = errors.Join(d.Sync(), d.Close())
	}
	return f, err
}

// Sync flushes the file to stable storage.
func (w *FileWAL) Sync() error { return w.f.Sync() }

// Close closes the file handle.
func (w *FileWAL) Close() error { return w.f.Close() }
