package event

import (
	"encoding/binary"
	"errors"
	"math"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// Compact binary codec for the Table I record: the typed kind of the
// batch record codec (streams/record.go), so a typed record crosses a
// batched TCP frame and rests in a durable-stream segment without ever
// being rendered to JSON (Recorder-style compact trace records). The
// envelope and the opaque kind live in streams, which cannot import this
// package; recordCodec below is registered there once. The layout is
// fixed-order, and its strings are the batch's (streams.BatchContext): a
// uvarint length and the bytes in a version-1 body, an id or a first
// spelling in a version-2 one. A raw record — every version-1 record,
// and record 0 of a version-2 body — writes varints for integers (zigzag
// for signed) and raw IEEE-754 bits for floats. Every later version-2
// record writes each integer column as the zigzag varint of its
// difference from record 0's, and each float as the uvarint of its bits
// XOR record 0's. A segment count is followed by the segments; the
// segment columns' base is record 0's last segment.
// Float bits travel verbatim, so a decoded record is value-identical to
// the encoded one — the property the golden ingest test pins down.

// ErrTruncated reports a record cut short of its declared contents.
var ErrTruncated = errors.New("event: truncated binary record")

func init() { streams.RegisterRecordCodec(recordCodec{}) }

// A record keeps each numeric column in streams.BatchContext's Base at its
// Table I row position (jsonmsg.Col*), and its seq after them.
const colSeq = jsonmsg.NumCols

var _ [streams.BaseCols - colSeq - 1]struct{} // Base must hold every column

// recordCodec implements streams.RecordCodec over *Record.
type recordCodec struct{}

// AppendTyped appends the record's fields in binary when they are
// materialized; it never triggers a parse.
func (recordCodec) AppendTyped(b []byte, c streams.Carrier, t *streams.BatchContext) ([]byte, bool) {
	r, ok := c.(*Record)
	if !ok {
		return b, false
	}
	m := r.TypedFields()
	if m == nil {
		return b, false
	}
	return appendBody(b, m, t), true
}

// DecodeTyped decodes one binary record into a typed-first *Record, so
// Fields downstream is a field read and Payload renders JSON (the fast
// encoder's) only if a text boundary ever asks. The record owns its
// memory — one allocation for wrapper and fields, one for the segments;
// its strings are the batch table's.
func (recordCodec) DecodeTyped(b []byte, t *streams.BatchContext) (streams.Carrier, int, error) {
	rec := &struct {
		Record
		fields jsonmsg.Message
	}{}
	d := newDecoder(b, t)
	if err := d.decodeInto(&rec.fields, nil); err != nil {
		return nil, 0, err
	}
	rec.msg = &rec.fields
	return &rec.Record, d.off, nil
}

// SkipTyped reads one binary record exactly as DecodeTyped does, into
// scratch on the stack: only the batch's table and base keep anything.
func (recordCodec) SkipTyped(b []byte, t *streams.BatchContext) (int, error) {
	var r RowDecoder
	for r.Start(b, t); r.Next(); {
	}
	return r.Len(), r.Err()
}

// RowDecoder reads one binary record as rows, never materializing it:
// Start reads the record's head into Head and each Next one segment into
// Seg, both scratch, through the steps every other decode takes. It
// allocates nothing beyond the strings the batch table spells out.
type RowDecoder struct {
	Head jsonmsg.Message
	Seg  jsonmsg.Segment
	d    decoder
	left int // segments not yet read
}

// Start reads the head of the binary record of c's batch at the front of
// b.
func (r *RowDecoder) Start(b []byte, c *streams.BatchContext) {
	r.d = newDecoder(b, c)
	var err error
	if r.left, err = r.d.head(&r.Head); err != nil {
		r.d.err = err
	}
}

// Next reads the record's next segment into Seg. It reports false once
// the record has no more, or on an error (Err).
func (r *RowDecoder) Next() bool {
	if r.left == 0 || r.d.err != nil {
		return false
	}
	r.left--
	return r.d.segment(&r.Seg) == nil
}

// Err is the error that ended the read, if any.
func (r *RowDecoder) Err() error { return r.d.err }

// Strings returns a version-2 batch's string table and the id in it of
// each string of Head and Seg, at the string's column (jsonmsg.Col*).
func (r *RowDecoder) Strings() ([]string, *[jsonmsg.NumCols]int32) { return r.d.c.Table(), &r.d.ids }

// Len is how many bytes of the record have been read.
func (r *RowDecoder) Len() int { return r.d.off }

// minSegSize is the smallest possible encoded segment: a one-byte
// DataSet, seven one-byte varints and two one-byte float varints.
// Decoders cap declared counts with it so a hostile header cannot make
// them reserve gigabytes (same hardening as darshanlog's decoder).
const minSegSize = 1 + 7 + 2

func zigzag(d uint64) uint64   { return d<<1 ^ uint64(int64(d)>>63) }
func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// zeroCols is what a raw record's numbers are written against.
var zeroCols [streams.BaseCols]uint64

// cols is what one record's numbers are written against: zero for a raw
// record — its signed columns are then their plain zigzag varints — whose
// columns are kept in the batch's Base, the base of every record after it.
type cols struct {
	c    *streams.BatchContext
	base *[streams.BaseCols]uint64
	raw  bool
}

func colsOf(c *streams.BatchContext) cols {
	if c.Raw() {
		return cols{c: c, base: &zeroCols, raw: true}
	}
	return cols{c: c, base: &c.Base}
}

func (k cols) keep(col int, v uint64) {
	if k.raw {
		k.c.Base[col] = v
	}
}

// encoder writes one record's numbers.
type encoder struct{ cols }

// int writes a signed column: the zigzag varint of its difference.
func (e encoder) int(b []byte, col int, v int64) []byte {
	e.keep(col, uint64(v))
	return binary.AppendUvarint(b, zigzag(uint64(v)-e.base[col]))
}

// uint writes an unsigned column: as it stands when raw.
func (e encoder) uint(b []byte, col int, v uint64) []byte {
	e.keep(col, v)
	if e.raw {
		return binary.AppendUvarint(b, v)
	}
	return binary.AppendUvarint(b, zigzag(v-e.base[col]))
}

// float writes a float column: its raw bits when raw, else the uvarint
// of its bits XOR the base's.
func (e encoder) float(b []byte, col int, f float64) []byte {
	v := math.Float64bits(f)
	e.keep(col, v)
	if e.raw {
		return binary.BigEndian.AppendUint64(b, v)
	}
	return binary.AppendUvarint(b, v^e.base[col])
}

// AppendMessage appends m's version-1 binary encoding to b — a record
// that decodes on its own — and returns the extended slice.
func AppendMessage(b []byte, m *jsonmsg.Message) []byte {
	var c streams.BatchContext
	_ = c.Reset(streams.BodyV1, nil)
	return appendBody(b, m, &c)
}

// appendBody appends m's binary record in c's batch to b. It writes one
// statement per column, in Table I order; TestTableHotSites pins it and
// the decoder's head and segment to jsonmsg.Table.
func appendBody(b []byte, m *jsonmsg.Message, c *streams.BatchContext) []byte {
	e := encoder{colsOf(c)}
	b = e.int(b, jsonmsg.ColUID, m.UID)
	b = c.AppendString(b, m.Exe)
	b = e.int(b, jsonmsg.ColJobID, m.JobID)
	b = e.int(b, jsonmsg.ColRank, int64(m.Rank))
	b = c.AppendString(b, m.ProducerName)
	b = c.AppendString(b, m.File)
	b = e.uint(b, jsonmsg.ColRecordID, m.RecordID)
	b = c.AppendString(b, m.Module)
	b = c.AppendString(b, m.Type)
	b = e.int(b, jsonmsg.ColMaxByte, m.MaxByte)
	b = e.int(b, jsonmsg.ColSwitches, m.Switches)
	b = e.int(b, jsonmsg.ColFlushes, m.Flushes)
	b = e.int(b, jsonmsg.ColCnt, m.Cnt)
	b = c.AppendString(b, m.Op)
	b = e.uint(b, colSeq, m.Seq)
	b = binary.AppendUvarint(b, uint64(len(m.Seg)))
	for i := range m.Seg {
		s := &m.Seg[i]
		b = c.AppendString(b, s.DataSet)
		b = e.int(b, jsonmsg.ColSegPtSel, s.PtSel)
		b = e.int(b, jsonmsg.ColSegIrregHSlab, s.IrregHSlab)
		b = e.int(b, jsonmsg.ColSegRegHSlab, s.RegHSlab)
		b = e.int(b, jsonmsg.ColSegNDims, s.NDims)
		b = e.int(b, jsonmsg.ColSegNPoints, s.NPoints)
		b = e.int(b, jsonmsg.ColSegOff, s.Off)
		b = e.int(b, jsonmsg.ColSegLen, s.Len)
		b = e.float(b, jsonmsg.ColSegDur, s.Dur)
		b = e.float(b, jsonmsg.ColSegTimestamp, s.Timestamp)
	}
	return b
}

// decoder reads one record against its batch's context, the mirror of
// encoder.
type decoder struct {
	cols
	b   []byte
	off int
	err error
	ids [jsonmsg.NumCols]int32 // the table ids of a row's strings, by column (RowDecoder.Strings)
}

func newDecoder(b []byte, c *streams.BatchContext) decoder {
	return decoder{cols: colsOf(c), b: b}
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

func (d *decoder) int(col int) int64 {
	v := d.base[col] + unzigzag(d.uvarint())
	d.keep(col, v)
	return int64(v)
}

func (d *decoder) uint(col int) uint64 {
	v := d.uvarint()
	if !d.raw {
		v = d.base[col] + unzigzag(v)
	}
	d.keep(col, v)
	return v
}

func (d *decoder) float(col int) float64 {
	var v uint64
	switch {
	case !d.raw:
		v = d.uvarint() ^ d.base[col]
	case d.err != nil:
	case len(d.b)-d.off < 8:
		d.err = ErrTruncated
	default:
		v = binary.BigEndian.Uint64(d.b[d.off:])
		d.off += 8
	}
	d.keep(col, v)
	return math.Float64frombits(v)
}

func (d *decoder) str(col int) string {
	if d.err != nil {
		return ""
	}
	s, id, n, err := d.c.String(d.b[d.off:])
	if err != nil {
		d.err = ErrTruncated
		return ""
	}
	d.off += n
	d.ids[col] = int32(id)
	return s
}

// decodeInto decodes one binary record from the front of d.b into m,
// allocating the segment backing from slab when non-nil (falling back to
// the heap otherwise).
func (d *decoder) decodeInto(m *jsonmsg.Message, slab *Slab) error {
	m.Seg = nil // m may be reused arena memory; every other field is assigned by head
	nseg, err := d.head(m)
	if err != nil || nseg == 0 {
		return err
	}
	if slab != nil {
		m.Seg = slab.Segments(nseg)[:0]
	} else {
		m.Seg = make([]jsonmsg.Segment, 0, nseg)
	}
	for i := 0; i < nseg; i++ {
		var s jsonmsg.Segment
		if err := d.segment(&s); err != nil {
			return err
		}
		m.Seg = append(m.Seg, s)
	}
	return nil
}

// head decodes every field of a record before its segments into m and
// returns the segment count, capped against the bytes left.
func (d *decoder) head(m *jsonmsg.Message) (int, error) {
	m.UID = d.int(jsonmsg.ColUID)
	m.Exe = d.str(jsonmsg.ColExe)
	m.JobID = d.int(jsonmsg.ColJobID)
	m.Rank = int(d.int(jsonmsg.ColRank))
	m.ProducerName = d.str(jsonmsg.ColProducerName)
	m.File = d.str(jsonmsg.ColFile)
	m.RecordID = d.uint(jsonmsg.ColRecordID)
	m.Module = d.str(jsonmsg.ColModule)
	m.Type = d.str(jsonmsg.ColType)
	m.MaxByte = d.int(jsonmsg.ColMaxByte)
	m.Switches = d.int(jsonmsg.ColSwitches)
	m.Flushes = d.int(jsonmsg.ColFlushes)
	m.Cnt = d.int(jsonmsg.ColCnt)
	m.Op = d.str(jsonmsg.ColOp)
	m.Seq = d.uint(colSeq)
	nseg := d.uvarint()
	if d.err != nil {
		return 0, d.err
	}
	if nseg > uint64(len(d.b)-d.off)/minSegSize+1 {
		return 0, ErrTruncated
	}
	return int(nseg), nil
}

// segment decodes one segment into s.
func (d *decoder) segment(s *jsonmsg.Segment) error {
	s.DataSet = d.str(jsonmsg.ColSegDataSet)
	s.PtSel = d.int(jsonmsg.ColSegPtSel)
	s.IrregHSlab = d.int(jsonmsg.ColSegIrregHSlab)
	s.RegHSlab = d.int(jsonmsg.ColSegRegHSlab)
	s.NDims = d.int(jsonmsg.ColSegNDims)
	s.NPoints = d.int(jsonmsg.ColSegNPoints)
	s.Off = d.int(jsonmsg.ColSegOff)
	s.Len = d.int(jsonmsg.ColSegLen)
	s.Dur = d.float(jsonmsg.ColSegDur)
	s.Timestamp = d.float(jsonmsg.ColSegTimestamp)
	return d.err
}

// DecodeTypedSlab decodes one binary record of c's batch from the front
// of b into slab-owned memory: the message struct and its segment array
// come from s and are valid only while s is retained; the strings are
// the batch table's, materialized through c's Interner. On steady state
// this path performs zero per-record heap allocations.
func DecodeTypedSlab(b []byte, c *streams.BatchContext, s *Slab) (*jsonmsg.Message, int, error) {
	d := newDecoder(b, c)
	m := s.Msg()
	if err := d.decodeInto(m, s); err != nil {
		return nil, 0, err
	}
	return m, d.off, nil
}

// DecodeMessageSlab decodes one version-1 binary record (AppendMessage)
// from the front of b into slab-owned memory, interning its strings
// through in when non-nil; see DecodeTypedSlab.
func DecodeMessageSlab(b []byte, s *Slab, in *Interner) (*jsonmsg.Message, int, error) {
	var si streams.Interner
	if in != nil {
		si = in
	}
	_ = s.v1.Reset(streams.BodyV1, si)
	return DecodeTypedSlab(b, &s.v1, s)
}
