package streams

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The batch record codec is the one message encoding of the durable
// path: the payload of a batched TCP frame (internal/ldms) and the body
// of a durable-stream segment batch entry are the same bytes, so a
// message crosses socket, segment and socket again without ever being
// rendered to text.
//
//	batch body  uvarint record count, then per record:
//	            kind byte (RecOpaque | RecTyped)
//	            tag string, type uvarint, producer string, seq uvarint
//	            RecTyped:  the typed plane's binary record (RecordCodec)
//	            RecOpaque: uvarint length + payload bytes
//
// where string is a uvarint length plus that many bytes. The envelope
// and the opaque kind — literal payload bytes, which is how string
// payloads and raw PublishJSON travel — are built in. The typed kind
// belongs to the typed plane: streams cannot import internal/event
// (event imports streams), so event registers its codec here once, the
// same seam Carrier, Detacher and Stamper already use.
const (
	RecOpaque = 0
	RecTyped  = 1
)

// MinBatchRecord is the smallest possible encoded record (kind byte plus
// five single-byte fields); decoders cap a declared count against it so a
// hostile header cannot cause a huge preallocation.
const MinBatchRecord = 6

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

// RecordCodec is the typed plane's half of the batch record codec.
type RecordCodec interface {
	// AppendTyped appends c's binary record to b. It reports false,
	// leaving b untouched, when c has no typed fields materialized; the
	// record then travels opaque, as its payload bytes.
	AppendTyped(b []byte, c Carrier) ([]byte, bool)
	// DecodeTyped decodes one binary record from the front of b into a
	// self-owned carrier and returns the bytes consumed.
	DecodeTyped(b []byte) (Carrier, int, error)
}

// typedCodec is the registration table of the typed kind, filled at
// start-up by internal/event's init.
var typedCodec RecordCodec

// RegisterRecordCodec installs the typed plane's codec. It must be
// called from an init function: the table is read without a lock.
func RegisterRecordCodec(c RecordCodec) { typedCodec = c }

func appendRecString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendRecord appends one record — envelope plus typed or opaque body —
// and returns the extended slice and the offset its body starts at.
func appendRecord(b []byte, m *Message) ([]byte, int) {
	kindAt := len(b)
	b = append(b, RecTyped)
	b = appendRecString(b, m.Tag)
	b = binary.AppendUvarint(b, uint64(m.Type))
	b = appendRecString(b, m.Producer)
	b = binary.AppendUvarint(b, m.Seq)
	body := len(b)
	if m.Record != nil && typedCodec != nil {
		if tb, ok := typedCodec.AppendTyped(b, m.Record); ok {
			return tb, body
		}
	}
	b[kindAt] = RecOpaque
	payload := m.Payload()
	b = binary.AppendUvarint(b, uint64(len(payload)))
	body = len(b)
	return append(b, payload...), body
}

// AppendRecords appends the batch body for msgs — the record count and
// one record per message, no frame or segment header — to b and returns
// the extended slice.
func AppendRecords(b []byte, msgs []Message) []byte {
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for i := range msgs {
		b, _ = appendRecord(b, &msgs[i])
	}
	return b
}

// RecordWalker walks a batch body, as laid out by AppendRecords, one
// record at a time with a sticky error. It is the one decoder of the
// record envelope: the durable stream's replay and delivery and the
// batched TCP receive path (internal/ldms) all read through it. Strings
// and bodies come back as views into the body; whether to reuse, intern
// or copy them is the caller's choice, and so is the decoding of a typed
// body, which starts at Rest and is consumed with Skip.
type RecordWalker struct {
	b   []byte
	off int
	err error
}

// NewRecordWalker returns a walker at the start of body.
func NewRecordWalker(body []byte) RecordWalker { return RecordWalker{b: body} }

// Envelope is one record's header, its strings viewing the walked body.
type Envelope struct {
	Kind     byte // RecOpaque or RecTyped
	Tag      []byte
	Type     MsgType
	Producer []byte
	Seq      uint64
	// Payload is an opaque record's bytes. A typed record leaves it nil:
	// its body is the front of Rest.
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

// bytes returns a view of the next length-prefixed field.
func (r *RecordWalker) bytes() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)-r.off) {
		r.err = ErrTruncated
		return nil
	}
	b := r.b[r.off : r.off+int(n)]
	r.off += int(n)
	return b
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
	e.Kind = r.b[r.off]
	r.off++
	e.Tag = r.bytes()
	e.Type = MsgType(r.uvarint())
	e.Producer = r.bytes()
	e.Seq = r.uvarint()
	switch e.Kind {
	case RecTyped:
	case RecOpaque:
		e.Payload = r.bytes()
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

// reuse materializes b, returning last when the bytes equal it: the
// envelope strings of one stream take a handful of values, and runs of
// them stop allocating.
func reuse(b []byte, last string) string {
	if string(b) == last { // compiles to a compare, no alloc
		return last
	}
	return string(b)
}

// record decodes the next record into a message with heap-owned typed
// fields. prev supplies the strings to reuse (the previous record's,
// typically). An opaque payload aliases the walked body; the size
// returned is the record's payload contribution — the opaque payload
// length, or the typed body length.
func (r *RecordWalker) record(prev *Message) (m Message, size int, err error) {
	e, err := r.Next()
	if err != nil {
		return m, 0, err
	}
	m = Message{Tag: reuse(e.Tag, prev.Tag), Type: e.Type, Producer: reuse(e.Producer, prev.Producer), Seq: e.Seq}
	if e.Kind == RecOpaque {
		if len(e.Payload) > 0 {
			m.Data = e.Payload
		}
		return m, len(e.Payload), nil
	}
	if typedCodec == nil {
		return m, 0, errNoTypedCodec
	}
	c, n, err := typedCodec.DecodeTyped(r.Rest())
	if err != nil {
		return m, 0, err
	}
	r.Skip(n)
	m.Record = c
	return m, n, nil
}
