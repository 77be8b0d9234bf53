package event

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// Compact binary codec for the Table I record: the typed kind of the
// batch record codec (streams/record.go), so a typed record crosses a
// batched TCP frame and rests in a durable-stream segment without ever
// being rendered to JSON (Recorder-style compact trace records). The
// envelope and the opaque kind live in streams, which cannot import this
// package; recordCodec below is registered there once. The layout is
// fixed-order: varints for integers (zigzag for signed), raw IEEE-754
// bits for floats, length-prefixed strings, a segment count followed by
// the segments.
// Float bits travel verbatim, so a decoded record is value-identical to
// the encoded one — the property the golden ingest test pins down.

// ErrTruncated reports a record cut short of its declared contents.
var ErrTruncated = errors.New("event: truncated binary record")

func init() { streams.RegisterRecordCodec(recordCodec{}) }

// recordCodec implements streams.RecordCodec over *Record.
type recordCodec struct{}

// AppendTyped appends the record's fields in binary when they are
// materialized; it never triggers a parse.
func (recordCodec) AppendTyped(b []byte, c streams.Carrier) ([]byte, bool) {
	r, ok := c.(*Record)
	if !ok {
		return b, false
	}
	m := r.TypedFields()
	if m == nil {
		return b, false
	}
	return AppendMessage(b, m), true
}

// DecodeTyped decodes one binary record into a typed-first *Record, so
// Fields downstream is a field read and Payload renders JSON (the fast
// encoder's) only if a text boundary ever asks. The record owns its
// memory — one allocation for wrapper and fields, one for the segments;
// the repetitive string fields are interned, as on the wire path.
func (recordCodec) DecodeTyped(b []byte) (streams.Carrier, int, error) {
	rec := &struct {
		Record
		fields jsonmsg.Message
	}{}
	in := interners.Get().(*Interner)
	d := decoder{b: b}
	err := d.decodeInto(&rec.fields, nil, in)
	interners.Put(in)
	if err != nil {
		return nil, 0, err
	}
	rec.msg = &rec.fields
	return &rec.Record, d.off, nil
}

// interners lends DecodeTyped an Interner per call: the codec is shared
// by every stream in the process and an Interner is single-threaded.
var interners = sync.Pool{New: func() any { return NewInterner() }}

// minSegSize is the smallest possible encoded segment: an empty DataSet
// (1 byte), seven single-byte varints, and two 8-byte floats. Decoders
// cap declared counts with it so a hostile header cannot make them
// reserve gigabytes (same hardening as darshanlog's decoder).
const minSegSize = 1 + 7 + 16

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendZig(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

func appendFloat(b []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendMessage appends m's binary encoding to b and returns the
// extended slice.
func AppendMessage(b []byte, m *jsonmsg.Message) []byte {
	b = appendZig(b, m.UID)
	b = appendString(b, m.Exe)
	b = appendZig(b, m.JobID)
	b = appendZig(b, int64(m.Rank))
	b = appendString(b, m.ProducerName)
	b = appendString(b, m.File)
	b = binary.AppendUvarint(b, m.RecordID)
	b = appendString(b, m.Module)
	b = appendString(b, m.Type)
	b = appendZig(b, m.MaxByte)
	b = appendZig(b, m.Switches)
	b = appendZig(b, m.Flushes)
	b = appendZig(b, m.Cnt)
	b = appendString(b, m.Op)
	b = binary.AppendUvarint(b, m.Seq)
	b = binary.AppendUvarint(b, uint64(len(m.Seg)))
	for i := range m.Seg {
		s := &m.Seg[i]
		b = appendString(b, s.DataSet)
		b = appendZig(b, s.PtSel)
		b = appendZig(b, s.IrregHSlab)
		b = appendZig(b, s.RegHSlab)
		b = appendZig(b, s.NDims)
		b = appendZig(b, s.NPoints)
		b = appendZig(b, s.Off)
		b = appendZig(b, s.Len)
		b = appendFloat(b, s.Dur)
		b = appendFloat(b, s.Timestamp)
	}
	return b
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = ErrTruncated
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) zig() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// strBytes returns a view into the input for the next length-prefixed
// string; the caller copies or interns it. A nil return with no error is
// the empty string.
func (d *decoder) strBytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)-d.off) {
		d.err = ErrTruncated
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// str materializes the next string, interning through in when provided
// (the slab path: repeated field values stop allocating entirely).
func (d *decoder) str(in *Interner) string {
	b := d.strBytes()
	if in != nil {
		return in.Intern(b)
	}
	if len(b) == 0 {
		return ""
	}
	return string(b)
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b)-d.off < 8 {
		d.err = ErrTruncated
		return 0
	}
	f := math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return f
}

// decodeInto decodes one binary record from the front of d.b into m,
// interning strings through in when non-nil and allocating the segment
// backing from slab when non-nil (falling back to the heap otherwise).
func (d *decoder) decodeInto(m *jsonmsg.Message, slab *Slab, in *Interner) error {
	m.Seg = nil // m may be reused arena memory; every other field is assigned below
	m.UID = d.zig()
	m.Exe = d.str(in)
	m.JobID = d.zig()
	m.Rank = int(d.zig())
	m.ProducerName = d.str(in)
	m.File = d.str(in)
	m.RecordID = d.uvarint()
	m.Module = d.str(in)
	m.Type = d.str(in)
	m.MaxByte = d.zig()
	m.Switches = d.zig()
	m.Flushes = d.zig()
	m.Cnt = d.zig()
	m.Op = d.str(in)
	m.Seq = d.uvarint()
	nseg := d.uvarint()
	if d.err != nil {
		return d.err
	}
	if nseg > uint64(len(d.b)-d.off)/minSegSize+1 {
		return ErrTruncated
	}
	if nseg > 0 {
		if slab != nil {
			m.Seg = slab.Segments(int(nseg))[:0]
		} else {
			m.Seg = make([]jsonmsg.Segment, 0, nseg)
		}
	}
	for i := uint64(0); i < nseg; i++ {
		var s jsonmsg.Segment
		s.DataSet = d.str(in)
		s.PtSel = d.zig()
		s.IrregHSlab = d.zig()
		s.RegHSlab = d.zig()
		s.NDims = d.zig()
		s.NPoints = d.zig()
		s.Off = d.zig()
		s.Len = d.zig()
		s.Dur = d.float()
		s.Timestamp = d.float()
		if d.err != nil {
			return d.err
		}
		m.Seg = append(m.Seg, s)
	}
	return nil
}

// DecodeMessageSlab decodes one binary record from the front of b into
// slab-owned memory: the message struct and its segment array come from s
// and are valid only while s is retained; strings are interned through in
// when non-nil (interned strings are plain heap strings, valid forever).
// On steady state this path performs zero per-record heap allocations.
func DecodeMessageSlab(b []byte, s *Slab, in *Interner) (*jsonmsg.Message, int, error) {
	d := decoder{b: b}
	m := s.Msg()
	if err := d.decodeInto(m, s, in); err != nil {
		return nil, 0, err
	}
	return m, d.off, nil
}
