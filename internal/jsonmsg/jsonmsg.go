// Package jsonmsg defines the JSON message the Darshan-LDMS Connector
// publishes to LDMS Streams for every I/O event — the schema of Table I and
// Fig 3 of the paper. Table declares it once: each column's JSON key,
// kind, segment flag, Fig 3 row position (the Col* constants) and field.
// The CSV header, the store schema (dsos.DarshanSchema), the row builders
// and the JSON contract (docs/table1.schema.json) are derived from it, and
// the few hot sites that spell the fields out are pinned to it by test.
// The package also holds three encoders that reproduce the paper's
// overhead story:
//
//   - Sprintf: formats every field with fmt.Sprintf, the analogue of the C
//     connector's sprintf() JSON assembly. This is the costly path that
//     inflates HMMER runtimes by 3-13x.
//   - Fast: strconv/append formatting, the obvious optimization.
//   - None: a pre-serialized placeholder, the paper's "without the
//     sprintf()" ablation (LDMS Streams publish only), measured at ~0.37%
//     overhead.
//
// Each encoder carries a calibrated simulated per-message CPU cost
// (SimCost) that the connector charges to the rank; the testing.B
// benchmarks measure the encoders' real costs in Go, and DESIGN.md records
// the scaling between the two.
package jsonmsg

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"darshanldms/internal/darshan"
)

// TypeMET and TypeMOD are the two message types: MET messages (sent for
// open events) carry the static metadata — the absolute directories of the
// executable and file — while MOD messages replace them with "N/A" to
// reduce message size and latency in the production pipeline.
const (
	TypeMET = "MET"
	TypeMOD = "MOD"
)

// NA is the placeholder for fields that do not apply to the module or type.
const NA = "N/A"

// appendJSONString appends s as a JSON string literal. Unlike
// strconv.AppendQuote (whose \x.. escapes are Go syntax, not JSON), this
// emits only JSON-legal escapes; invalid UTF-8 is replaced the way
// encoding/json replaces it.
func appendJSONString(b []byte, s string) []byte {
	if !utf8.ValidString(s) {
		s = strings.ToValidUTF8(s, "�")
	}
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x20 && c != '"' && c != '\\' {
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"':
			b = append(b, '\\', '"')
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		}
		start = i + 1
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// Segment is one entry of the "seg" list: the per-operation metrics.
type Segment struct {
	DataSet    string  `json:"data_set"`
	PtSel      int64   `json:"pt_sel"`
	IrregHSlab int64   `json:"irreg_hslab"`
	RegHSlab   int64   `json:"reg_hslab"`
	NDims      int64   `json:"ndims"`
	NPoints    int64   `json:"npoints"`
	Off        int64   `json:"off"`
	Len        int64   `json:"len"`
	Dur        float64 `json:"dur"`       // seconds the op took for this rank
	Timestamp  float64 `json:"timestamp"` // absolute end time, epoch seconds
}

// Message is the JSON message of Table I.
type Message struct {
	UID          int64     `json:"uid"`
	Exe          string    `json:"exe"`
	JobID        int64     `json:"job_id"`
	Rank         int       `json:"rank"`
	ProducerName string    `json:"ProducerName"`
	File         string    `json:"file"`
	RecordID     uint64    `json:"record_id"`
	Module       string    `json:"module"`
	Type         string    `json:"type"`
	MaxByte      int64     `json:"max_byte"`
	Switches     int64     `json:"switches"`
	Flushes      int64     `json:"flushes"`
	Cnt          int64     `json:"cnt"`
	Op           string    `json:"op"`
	Seg          []Segment `json:"seg"`
	// Seq is the per-producer sequence number the connector stamps for
	// exactly-once ingest: (ProducerName, Seq) identifies a message across
	// retries and spool replays. The Table I encoders do not emit it (the
	// paper's payload is unchanged); it travels out-of-band on the streams
	// message and is accepted here when a peer does include it.
	Seq uint64 `json:"seq,omitempty"`
}

// The Table I columns, numbered by their position in the Fig 3 row: the
// store schema's attribute and the CSV column. The codec's column slots
// and string ids are these numbers too.
const (
	ColModule = iota
	ColUID
	ColProducerName
	ColSwitches
	ColFile
	ColRank
	ColFlushes
	ColRecordID
	ColExe
	ColMaxByte
	ColType
	ColJobID
	ColOp
	ColCnt
	ColSegOff
	ColSegPtSel
	ColSegDur
	ColSegLen
	ColSegNDims
	ColSegIrregHSlab
	ColSegRegHSlab
	ColSegDataSet
	ColSegNPoints
	ColSegTimestamp
	NumCols
)

// Kind is the type of a column's value.
type Kind uint8

// The column kinds. A KindInt column is an int64 (Rank, an int, widens);
// a KindFloat one is rendered with six decimals.
const (
	KindInt Kind = iota
	KindUint
	KindFloat
	KindString
)

// Column is one entry of Table.
type Column struct {
	Key  string // the JSON key
	Kind Kind
	Seg  bool // a field of each "seg" entry rather than of the message
	Row  int  // the position in the Fig 3 row (Col*)
	// Ref returns a pointer to the column's field, in s for a Seg column
	// and in m otherwise: an *int64, *int, *uint64, *float64 or *string.
	Ref func(m *Message, s *Segment) any
}

// Table is Table I in message order, the order of the JSON keys: the
// message's columns, then each seg entry's. Seq is not a column; it
// travels out of band.
var Table = [NumCols]Column{
	{"uid", KindInt, false, ColUID, func(m *Message, _ *Segment) any { return &m.UID }},
	{"exe", KindString, false, ColExe, func(m *Message, _ *Segment) any { return &m.Exe }},
	{"job_id", KindInt, false, ColJobID, func(m *Message, _ *Segment) any { return &m.JobID }},
	{"rank", KindInt, false, ColRank, func(m *Message, _ *Segment) any { return &m.Rank }},
	{"ProducerName", KindString, false, ColProducerName, func(m *Message, _ *Segment) any { return &m.ProducerName }},
	{"file", KindString, false, ColFile, func(m *Message, _ *Segment) any { return &m.File }},
	{"record_id", KindUint, false, ColRecordID, func(m *Message, _ *Segment) any { return &m.RecordID }},
	{"module", KindString, false, ColModule, func(m *Message, _ *Segment) any { return &m.Module }},
	{"type", KindString, false, ColType, func(m *Message, _ *Segment) any { return &m.Type }},
	{"max_byte", KindInt, false, ColMaxByte, func(m *Message, _ *Segment) any { return &m.MaxByte }},
	{"switches", KindInt, false, ColSwitches, func(m *Message, _ *Segment) any { return &m.Switches }},
	{"flushes", KindInt, false, ColFlushes, func(m *Message, _ *Segment) any { return &m.Flushes }},
	{"cnt", KindInt, false, ColCnt, func(m *Message, _ *Segment) any { return &m.Cnt }},
	{"op", KindString, false, ColOp, func(m *Message, _ *Segment) any { return &m.Op }},
	{"data_set", KindString, true, ColSegDataSet, func(_ *Message, s *Segment) any { return &s.DataSet }},
	{"pt_sel", KindInt, true, ColSegPtSel, func(_ *Message, s *Segment) any { return &s.PtSel }},
	{"irreg_hslab", KindInt, true, ColSegIrregHSlab, func(_ *Message, s *Segment) any { return &s.IrregHSlab }},
	{"reg_hslab", KindInt, true, ColSegRegHSlab, func(_ *Message, s *Segment) any { return &s.RegHSlab }},
	{"ndims", KindInt, true, ColSegNDims, func(_ *Message, s *Segment) any { return &s.NDims }},
	{"npoints", KindInt, true, ColSegNPoints, func(_ *Message, s *Segment) any { return &s.NPoints }},
	{"off", KindInt, true, ColSegOff, func(_ *Message, s *Segment) any { return &s.Off }},
	{"len", KindInt, true, ColSegLen, func(_ *Message, s *Segment) any { return &s.Len }},
	{"dur", KindFloat, true, ColSegDur, func(_ *Message, s *Segment) any { return &s.Dur }},
	{"timestamp", KindFloat, true, ColSegTimestamp, func(_ *Message, s *Segment) any { return &s.Timestamp }},
}

// Name is the column's name in the Fig 3 row: its key, behind "seg" and
// sep for a Seg column.
func (c *Column) Name(sep string) string {
	if c.Seg {
		return "seg" + sep + c.Key
	}
	return c.Key
}

// Value returns the column's value in m or s as its kind's type: int64,
// uint64, float64 or string.
func (c *Column) Value(m *Message, s *Segment) any {
	switch p := c.Ref(m, s).(type) {
	case *int:
		return int64(*p)
	case *int64:
		return *p
	case *uint64:
		return *p
	case *float64:
		return *p
	default:
		return *p.(*string)
	}
}

// Set stores v, a value of the column's kind's type, into m or s.
func (c *Column) Set(m *Message, s *Segment, v any) {
	p := reflect.ValueOf(c.Ref(m, s)).Elem()
	p.Set(reflect.ValueOf(v).Convert(p.Type()))
}

// CSVHeader is the column layout the store converts messages into (the
// bottom of Fig 3): the row's column names, "seg:" marking a seg entry's.
var CSVHeader = func() string {
	var names [NumCols]string
	for i := range Table {
		names[Table[i].Row] = Table[i].Name(":")
	}
	return "#" + strings.Join(names[:], ",")
}()

// JobMeta is the static job information stamped into every message.
type JobMeta struct {
	UID   int64
	JobID int64
	Exe   string
}

// EpochBase anchors virtual time zero to a wall-clock epoch so the
// "timestamp" field looks like the paper's epoch seconds.
const EpochBase = 1.6e9

// Quant6 rounds v to the 6-decimal value its JSON rendering ("%.6f")
// carries. FromEvent quantizes dur/timestamp at the source so a typed
// record holds exactly the value a peer would recover by parsing the
// JSON: the encode→parse round trip becomes the identity, which is what
// lets the lazy typed plane skip it without perturbing a single stored
// row. The quantization is idempotent (formatting the parsed value back
// to 6 decimals reproduces the same text), so the JSON bytes themselves
// are unchanged too.
func Quant6(v float64) float64 {
	q, err := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 6, 64), 64)
	if err != nil {
		return v
	}
	return q
}

// FromEvent builds the connector message for a Darshan event. Open events
// are typed MET and carry the absolute exe/file paths; all other events are
// typed MOD with "N/A" placeholders (Section IV-C of the paper). Missing
// HDF5 metrics are -1/"N/A".
func FromEvent(ev *darshan.Event, meta JobMeta) Message {
	m := Message{
		UID:          meta.UID,
		JobID:        meta.JobID,
		Rank:         ev.Rank,
		ProducerName: ev.Producer,
		RecordID:     ev.RecordID,
		Module:       string(ev.Module),
		MaxByte:      ev.MaxByte,
		Switches:     ev.Switches,
		Flushes:      ev.Flushes,
		Cnt:          ev.Cnt,
		Op:           string(ev.Op),
	}
	if ev.Op == darshan.OpOpen {
		m.Type = TypeMET
		m.Exe = meta.Exe
		m.File = ev.File
	} else {
		m.Type = TypeMOD
		m.Exe = NA
		m.File = NA
	}
	seg := Segment{
		DataSet:    NA,
		PtSel:      -1,
		IrregHSlab: -1,
		RegHSlab:   -1,
		NDims:      -1,
		NPoints:    -1,
		Off:        ev.Offset,
		Len:        ev.Length,
		Dur:        Quant6(ev.Duration().Seconds()),
		Timestamp:  Quant6(EpochBase + ev.End.Seconds()),
	}
	if ev.H5 != nil {
		seg.DataSet = ev.H5.DataSet
		seg.PtSel = ev.H5.PtSel
		seg.IrregHSlab = ev.H5.IrregHSlab
		seg.RegHSlab = ev.H5.RegHSlab
		seg.NDims = ev.H5.NDims
		seg.NPoints = ev.H5.NPoints
	}
	m.Seg = []Segment{seg}
	return m
}

// Encoder serializes messages and knows its simulated per-message cost.
type Encoder interface {
	Name() string
	Encode(m *Message) []byte
	// SimCost is the virtual CPU time one Encode charges to the rank.
	SimCost() time.Duration
}

// SprintfEncoder formats every name:value pair with fmt.Sprintf — the
// paper's integer-to-string conversion cost, "the more I/O intensive an
// application ... the overhead will increase significantly".
type SprintfEncoder struct{}

// Name implements Encoder.
func (SprintfEncoder) Name() string { return "sprintf" }

// SimCost implements Encoder. Calibrated so HMMER's message volume (3-4.5M
// messages) produces multi-x runtime inflation as in Table IIc.
func (SprintfEncoder) SimCost() time.Duration { return 520 * time.Microsecond }

// Encode implements Encoder.
//
//lint:allow hotalloc deliberate sprintf-encoder ablation (Table IIc cost model)
func (SprintfEncoder) Encode(m *Message) []byte {
	var b strings.Builder
	b.WriteString(sprintfColumns(m, nil) + fmt.Sprintf(",%q:[", "seg"))
	for i := range m.Seg {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sprintfColumns(m, &m.Seg[i]) + "}")
	}
	b.WriteString("]}")
	return []byte(b.String())
}

// sprintfColumns formats "{" and the name:value pairs of Table's message
// columns, or of its seg columns when s is not nil, with fmt.Sprintf.
//
//lint:allow hotalloc deliberate sprintf-encoder ablation (Table IIc cost model)
func sprintfColumns(m *Message, s *Segment) string {
	out := "{"
	for i := range Table {
		if c := &Table[i]; c.Seg == (s != nil) {
			if len(out) > 1 {
				out += ","
			}
			switch v := c.Value(m, s).(type) {
			case string:
				out += fmt.Sprintf("%q:%s", c.Key, appendJSONString(nil, v))
			case float64:
				out += fmt.Sprintf("%q:%.6f", c.Key, v)
			default:
				out += fmt.Sprintf("%q:%d", c.Key, v)
			}
		}
	}
	return out
}

// FastEncoder is the strconv/append encoder: identical output, far cheaper.
type FastEncoder struct{}

// Name implements Encoder.
func (FastEncoder) Name() string { return "fast" }

// SimCost implements Encoder.
func (FastEncoder) SimCost() time.Duration { return 20 * time.Microsecond }

// Encode implements Encoder. It writes the columns in Table order with
// its keys as literals (read from a table, a key costs a variable-length
// copy, and the encoder a tenth of its speed); TestTableHotSites and
// FuzzEncodeParse pin it to Table.
func (FastEncoder) Encode(m *Message) []byte {
	b := make([]byte, 0, 512)
	b = append(b, `{"uid":`...)
	b = strconv.AppendInt(b, m.UID, 10)
	b = append(b, `,"exe":`...)
	b = appendJSONString(b, m.Exe)
	b = append(b, `,"job_id":`...)
	b = strconv.AppendInt(b, m.JobID, 10)
	b = append(b, `,"rank":`...)
	b = strconv.AppendInt(b, int64(m.Rank), 10)
	b = append(b, `,"ProducerName":`...)
	b = appendJSONString(b, m.ProducerName)
	b = append(b, `,"file":`...)
	b = appendJSONString(b, m.File)
	b = append(b, `,"record_id":`...)
	b = strconv.AppendUint(b, m.RecordID, 10)
	b = append(b, `,"module":`...)
	b = appendJSONString(b, m.Module)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, m.Type)
	b = append(b, `,"max_byte":`...)
	b = strconv.AppendInt(b, m.MaxByte, 10)
	b = append(b, `,"switches":`...)
	b = strconv.AppendInt(b, m.Switches, 10)
	b = append(b, `,"flushes":`...)
	b = strconv.AppendInt(b, m.Flushes, 10)
	b = append(b, `,"cnt":`...)
	b = strconv.AppendInt(b, m.Cnt, 10)
	b = append(b, `,"op":`...)
	b = appendJSONString(b, m.Op)
	b = append(b, `,"seg":[`...)
	for i := range m.Seg {
		s := &m.Seg[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"data_set":`...)
		b = appendJSONString(b, s.DataSet)
		b = append(b, `,"pt_sel":`...)
		b = strconv.AppendInt(b, s.PtSel, 10)
		b = append(b, `,"irreg_hslab":`...)
		b = strconv.AppendInt(b, s.IrregHSlab, 10)
		b = append(b, `,"reg_hslab":`...)
		b = strconv.AppendInt(b, s.RegHSlab, 10)
		b = append(b, `,"ndims":`...)
		b = strconv.AppendInt(b, s.NDims, 10)
		b = append(b, `,"npoints":`...)
		b = strconv.AppendInt(b, s.NPoints, 10)
		b = append(b, `,"off":`...)
		b = strconv.AppendInt(b, s.Off, 10)
		b = append(b, `,"len":`...)
		b = strconv.AppendInt(b, s.Len, 10)
		b = append(b, `,"dur":`...)
		b = strconv.AppendFloat(b, s.Dur, 'f', 6, 64)
		b = append(b, `,"timestamp":`...)
		b = strconv.AppendFloat(b, s.Timestamp, 'f', 6, 64)
		b = append(b, '}')
	}
	b = append(b, ']', '}')
	return b
}

// NoneEncoder is the ablation: the connector's send path runs (LDMS Streams
// API enabled, send function called) but no JSON is formatted — a tiny
// constant placeholder is published instead.
type NoneEncoder struct{}

// Name implements Encoder.
func (NoneEncoder) Name() string { return "none" }

// SimCost implements Encoder. The paper measured ~0.37% average overhead
// for this configuration.
func (NoneEncoder) SimCost() time.Duration { return 200 * time.Nanosecond }

var nonePayload = []byte(`{"type":"raw"}`)

// Encode implements Encoder.
func (NoneEncoder) Encode(m *Message) []byte { return nonePayload }

// Lossy reports that this encoder's output does not carry the message
// fields. The connector checks for this marker and keeps such messages
// in their eager placeholder form instead of shipping the typed record
// (which would quietly restore the fields the ablation throws away).
func (NoneEncoder) Lossy() bool { return true }

// Parse decodes a JSON message produced by the Sprintf or Fast encoders.
func Parse(data []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("jsonmsg: %w", err)
	}
	return &m, nil
}
