package streams

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// The batch record codec is the one message encoding of the durable
// path: the payload of a batched TCP frame (internal/ldms) and the body
// of a durable-stream segment batch entry are the same bytes, so a
// message crosses socket, segment and socket again without ever being
// rendered to text.
//
//	batch body  uvarint record count, then per record:
//	            kind byte (RecOpaque | RecTyped)
//	            tag string, type uvarint, producer string, seq number
//	            RecTyped:  the typed plane's binary record (RecordCodec)
//	            RecOpaque: uvarint length + payload bytes
//
// The body carries no version of its own: the segment entry's and the
// batch frame's header byte says which of two layouts it is.
//
//   - Version 2, the one written. A string is a uvarint v: below n, the
//     number of strings the body has spelled out so far, it is the id of
//     one of them; otherwise the v-n bytes that follow are the string,
//     which takes id n. The envelope and the typed body share the one
//     table, so a string is written in full on its first use in the batch
//     and as a small id after that. Record 0's numbers are written as they
//     stand (the seq as a uvarint); every later record's are written
//     against record 0's (the seq as the zigzag varint of the
//     difference), the typed body's columns too. Deltas are taken from
//     record 0, not the record before, so any one record decodes with the
//     BatchContext alone: a durable stream delivers by sequence, and
//     retention trims in mid-batch.
//   - Version 1, read only. A string is a uvarint length plus the bytes
//     and every number stands as it is, so each record decodes on its
//     own. A version-1 body reads as a version-2 one whose table never
//     grows and whose every record is record 0.
//
// The envelope and the opaque kind — literal payload bytes, which is how
// string payloads and raw PublishJSON travel — are built in. The typed
// kind belongs to the typed plane: streams cannot import internal/event
// (event imports streams), so event registers its codec here once, the
// same seam Carrier already uses.
const (
	RecOpaque = 0
	RecTyped  = 1
)

// Batch body versions, the byte a segment batch entry's and a batch
// frame's header carry.
const (
	BodyV1 = 1 // read only
	BodyV2 = 2 // the one written
)

// MinBatchRecord is the smallest possible encoded record (kind byte plus
// five single-byte fields); decoders cap a declared count against it so a
// hostile header cannot cause a huge preallocation.
const MinBatchRecord = 6

// BaseCols is the most column slots the typed plane may keep in a
// BatchContext's Base: it keeps each numeric column of Table I at the
// column's row position, 0 to 23, and the record's seq at 24. A durable
// stream keeps a copy per stored batch, so there is no spare room.
const BaseCols = 25

// Record codec errors.
var (
	// ErrTruncated reports a batch body cut short of its declared contents.
	ErrTruncated = errors.New("streams: truncated batch record")
	// ErrEmptyBatch reports a batch body declaring zero records.
	ErrEmptyBatch = errors.New("streams: empty batch")
	// errNoTypedCodec is not corruption: the bytes may be fine, this
	// process just cannot read them. Recovery must fail loudly on it
	// rather than truncate the segment as a torn tail.
	errNoTypedCodec = errors.New("streams: typed record but no record codec registered (import internal/event)")
)

// RecordCodec is the typed plane's half of the batch record codec. Its
// strings go through the BatchContext's table, and its numbers are
// written as they stand when c.Raw() and against c.Base otherwise; a raw
// record stores its columns in c.Base, on both sides.
type RecordCodec interface {
	// AppendTyped appends c's binary record to b. It reports false,
	// leaving b and t untouched, when c has no typed fields materialized;
	// the record then travels opaque, as its payload bytes.
	AppendTyped(b []byte, c Carrier, t *BatchContext) ([]byte, bool)
	// DecodeTyped decodes one binary record from the front of b into a
	// self-owned carrier and returns the bytes consumed.
	DecodeTyped(b []byte, t *BatchContext) (Carrier, int, error)
	// SkipTyped reads one binary record as DecodeTyped does, building
	// only t's table and base, and returns the bytes consumed. It
	// allocates nothing but the strings the table spells out.
	SkipTyped(b []byte, t *BatchContext) (int, error)
}

// typedCodec is the registration table of the typed kind, filled at
// start-up by internal/event's init.
var typedCodec RecordCodec

// RegisterRecordCodec installs the typed plane's codec. It must be
// called from an init function: the table is read without a lock.
func RegisterRecordCodec(c RecordCodec) { typedCodec = c }

// Interner returns a string equal to b, reusing one it returned before
// where it can (internal/event's Interner is one).
type Interner interface {
	Intern(b []byte) string
}

// BatchContext is what the records of one batch body share: the string
// table and record 0's numbers, the base every later record is written
// against. A writer fills it as it appends, a walker rebuilds it as it
// reads, and a durable stream keeps the finished one beside the body, so
// that each retained record still decodes on its own. It is not safe for
// concurrent use.
type BatchContext struct {
	// Base holds the typed plane's columns of record 0 (zero when record
	// 0 is opaque).
	Base [BaseCols]uint64
	strs []string // the table, by id
	seq0 uint64   // record 0's seq
	v1   bool
	in   Interner // materializes a literal on read; nil copies it

	n     int  // ids spelled out before the read or write position
	first bool // the current record is record 0

	// A writer finds a string's id by a scan of the table while it is
	// short, and through ids, filled as lookups need it, once it is not.
	ids    map[string]uint32
	mapped int // the table's first mapped strings
}

// scanMax is the longest table searched by a scan.
const scanMax = 8

// find returns the id of a string equal to s in the table, or false.
func (c *BatchContext) find(s string) (uint32, bool) {
	if len(c.strs) <= scanMax {
		for i, t := range c.strs {
			if t == s {
				return uint32(i), true
			}
		}
		return 0, false
	}
	if c.ids == nil {
		c.ids = make(map[string]uint32, 4*scanMax)
	}
	for ; c.mapped < len(c.strs); c.mapped++ {
		c.ids[c.strs[c.mapped]] = uint32(c.mapped)
	}
	id, ok := c.ids[s]
	return id, ok
}

// Reset readies c for one batch body of the given version: an empty
// table, a zero base, and in (which may be nil) to materialize the
// strings a read spells out. Writers always write BodyV2.
func (c *BatchContext) Reset(version byte, in Interner) error {
	if version != BodyV1 && version != BodyV2 {
		return fmt.Errorf("streams: unsupported batch version %d", version)
	}
	if c.mapped > 0 {
		clear(c.ids)
		c.mapped = 0
	}
	c.Base = [BaseCols]uint64{}
	c.strs, c.seq0, c.v1, c.in = c.strs[:0], 0, version == BodyV1, in
	c.n, c.first = 0, true
	return nil
}

// Raw reports whether the current record's numbers stand as they are (a
// version-1 body, or record 0) rather than against Base.
func (c *BatchContext) Raw() bool { return c.v1 || c.first }

// AppendString appends s to b: its id when the body has spelled s out
// before, else s itself, which takes the next id.
func (c *BatchContext) AppendString(b []byte, s string) []byte {
	if c.v1 {
		b = binary.AppendUvarint(b, uint64(len(s)))
		return append(b, s...)
	}
	if id, ok := c.find(s); ok {
		return binary.AppendUvarint(b, uint64(id))
	}
	c.strs = append(c.strs, s)
	b = binary.AppendUvarint(b, uint64(c.n+len(s)))
	c.n++
	return append(b, s...)
}

// String reads the string at the front of b and reports its id in the
// table (-1 in a version-1 body, which has none) and the bytes it took. A
// string spelled out for the first time joins the table, unless the
// table already holds it: a retained record is decoded again against the
// table its first read built.
func (c *BatchContext) String(b []byte) (string, int, int, error) {
	v, k := binary.Uvarint(b)
	if k <= 0 {
		return "", 0, 0, ErrTruncated
	}
	if !c.v1 {
		if v < uint64(c.n) {
			return c.strs[v], int(v), k, nil
		}
		v -= uint64(c.n)
	}
	if v > uint64(len(b)-k) {
		return "", 0, 0, ErrTruncated
	}
	lit, k := b[k:k+int(v)], k+int(v)
	if c.v1 {
		return c.intern(lit), -1, k, nil
	}
	if c.n == len(c.strs) {
		c.strs = append(c.strs, c.intern(lit))
	}
	c.n++
	return c.strs[c.n-1], c.n - 1, k, nil
}

// Table is the body's string table, by id, as far as it has been read.
func (c *BatchContext) Table() []string { return c.strs }

func (c *BatchContext) intern(b []byte) string {
	if c.in != nil {
		return c.in.Intern(b)
	}
	return string(b)
}

// zigzag maps a difference of words, read as an int64, to a uint64 that
// is small when the difference is near zero either way; unzigzag inverts
// it.
func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// appendRecord appends one version-2 record — envelope plus typed or
// opaque body — and returns the extended slice and the offset its body
// starts at.
func (c *BatchContext) appendRecord(b []byte, m *Message) ([]byte, int) {
	kindAt := len(b)
	b = append(b, RecTyped)
	b = c.AppendString(b, m.Tag)
	b = binary.AppendUvarint(b, uint64(m.Type))
	b = c.AppendString(b, m.Producer)
	if c.first {
		c.seq0 = m.Seq
		b = binary.AppendUvarint(b, m.Seq)
	} else {
		b = binary.AppendUvarint(b, zigzag(m.Seq-c.seq0))
	}
	body := len(b)
	if m.Record != nil && typedCodec != nil {
		if tb, ok := typedCodec.AppendTyped(b, m.Record, c); ok {
			c.first = false
			return tb, body
		}
	}
	c.first = false
	b[kindAt] = RecOpaque
	payload := m.Payload()
	b = binary.AppendUvarint(b, uint64(len(payload)))
	body = len(b)
	return append(b, payload...), body
}

// writers lends AppendRecords a table per call.
var writers = sync.Pool{New: func() any { return new(BatchContext) }}

// AppendRecords appends the version-2 batch body for msgs — the record
// count and one record per message, no frame or segment header — to b
// and returns the extended slice.
func AppendRecords(b []byte, msgs []Message) []byte {
	c := writers.Get().(*BatchContext)
	_ = c.Reset(BodyV2, nil)
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for i := range msgs {
		b, _ = c.appendRecord(b, &msgs[i])
	}
	writers.Put(c)
	return b
}

// RecordWalker walks a batch body, as laid out by AppendRecords, one
// record at a time with a sticky error. It is the one decoder of the
// record envelope: the durable stream's replay and delivery and the
// batched TCP receive path (internal/ldms) all read through it. Strings
// come back through the walker's BatchContext; the decoding of a typed
// body, which starts at Rest and is consumed with Skip, is the caller's,
// against the same context.
type RecordWalker struct {
	b   []byte
	off int
	err error
	c   *BatchContext
	i   int // records read
}

// NewRecordWalker returns a walker at the start of body, reading it
// against c, which the caller has Reset for the body's version.
func NewRecordWalker(body []byte, c *BatchContext) RecordWalker {
	return RecordWalker{b: body, c: c}
}

// Envelope is one record's header.
type Envelope struct {
	Kind     byte // RecOpaque or RecTyped
	Tag      string
	Type     MsgType
	Producer string
	Seq      uint64
	// Payload is an opaque record's bytes, a view into the walked body. A
	// typed record leaves it nil: its body is the front of Rest.
	Payload []byte
}

func (r *RecordWalker) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	r.off += n
	return v
}

func (r *RecordWalker) str() string {
	if r.err != nil {
		return ""
	}
	s, _, n, err := r.c.String(r.b[r.off:])
	r.off += n
	r.err = err
	return s
}

// Count reads and validates the batch body's record count.
func (r *RecordWalker) Count() (int, error) {
	n := r.uvarint()
	if r.err != nil {
		return 0, r.err
	}
	if n == 0 {
		return 0, ErrEmptyBatch
	}
	if n > uint64(len(r.b)-r.off)/MinBatchRecord+1 {
		return 0, fmt.Errorf("streams: batch declares %d records in %d bytes", n, len(r.b))
	}
	return int(n), nil
}

// Next reads the next record's envelope and, for an opaque record, its
// payload. A typed record's body is left for the caller to decode.
func (r *RecordWalker) Next() (Envelope, error) {
	var e Envelope
	if r.err != nil {
		return e, r.err
	}
	if r.off >= len(r.b) {
		return e, ErrTruncated
	}
	r.c.first = r.i == 0
	r.i++
	e.Kind = r.b[r.off]
	r.off++
	e.Tag = r.str()
	e.Type = MsgType(r.uvarint())
	e.Producer = r.str()
	e.Seq = r.uvarint()
	if r.c.Raw() {
		r.c.seq0 = e.Seq
	} else {
		e.Seq = r.c.seq0 + unzigzag(e.Seq)
	}
	switch e.Kind {
	case RecTyped:
	case RecOpaque:
		n := r.uvarint()
		if r.err == nil && n > uint64(len(r.b)-r.off) {
			r.err = ErrTruncated
		}
		if r.err == nil {
			e.Payload = r.b[r.off : r.off+int(n)]
			r.off += int(n)
		}
	default:
		if r.err == nil {
			return e, fmt.Errorf("streams: unknown batch record kind %d", e.Kind)
		}
	}
	return e, r.err
}

// Rest returns the unread bytes: a typed record's body and what follows.
func (r *RecordWalker) Rest() []byte { return r.b[r.off:] }

// Skip consumes n bytes of Rest, the length of a decoded typed body.
func (r *RecordWalker) Skip(n int) { r.off += n }

// Offset returns how many bytes of the body have been consumed.
func (r *RecordWalker) Offset() int { return r.off }

// Done reports an error unless the whole body has been consumed.
func (r *RecordWalker) Done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("streams: %d trailing bytes after batch", len(r.b)-r.off)
	}
	return nil
}

// record decodes the next record into a message with heap-owned typed
// fields; its strings are the table's. An opaque payload aliases the
// walked body; the size returned is the record's payload contribution —
// the opaque payload length, or the typed body length.
func (r *RecordWalker) record() (m Message, size int, err error) {
	e, err := r.Next()
	if err != nil {
		return m, 0, err
	}
	m = Message{Tag: e.Tag, Type: e.Type, Producer: e.Producer, Seq: e.Seq}
	if e.Kind == RecOpaque {
		if len(e.Payload) > 0 {
			m.Data = e.Payload
		}
		return m, len(e.Payload), nil
	}
	if typedCodec == nil {
		return m, 0, errNoTypedCodec
	}
	c, n, err := typedCodec.DecodeTyped(r.Rest(), r.c)
	if err != nil {
		return m, 0, err
	}
	r.Skip(n)
	m.Record = c
	return m, n, nil
}

// DecodeRecords decodes a batch body of the given version into freshly
// allocated messages: typed records as the registered codec's carriers,
// opaque payloads aliasing body. A durable stream reads version-1 entries
// through it.
func DecodeRecords(version byte, body []byte) ([]Message, error) {
	var c BatchContext
	if err := c.Reset(version, nil); err != nil {
		return nil, err
	}
	r := NewRecordWalker(body, &c)
	n, err := r.Count()
	if err != nil {
		return nil, err
	}
	out := make([]Message, 0, n)
	for i := 0; i < n; i++ {
		m, _, err := r.record()
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return out, nil
}
