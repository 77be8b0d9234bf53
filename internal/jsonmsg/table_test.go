package jsonmsg_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func sample() jsonmsg.Message {
	return jsonmsg.Message{
		UID: 99066, Exe: "/projects/mpi-io-test", JobID: 259903, Rank: 3,
		ProducerName: "nid00046", File: "/nscratch/mpi-io-test.dat", RecordID: 42,
		Module: "POSIX", Type: jsonmsg.TypeMET, MaxByte: -1, Switches: -1, Flushes: -1,
		Cnt: 1, Op: "open",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1,
			NPoints: -1, Off: 0, Len: 16 << 20, Dur: 0.35, Timestamp: jsonmsg.EpochBase + 12.5,
		}},
	}
}

// csvLines stores m through the CSV store and returns the lines written.
func csvLines(t *testing.T, m *jsonmsg.Message) []string {
	t.Helper()
	var out bytes.Buffer
	s := ldms.NewCSVStore(&out)
	if err := s.Store(streams.Message{Record: event.NewRecord(m, nil)}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
}

func TestCSVRows(t *testing.T) {
	m := sample()
	lines := csvLines(t, &m)
	if len(lines) != 2 || lines[0] != jsonmsg.CSVHeader {
		t.Fatalf("want the header and one row, got %q", lines)
	}
	nCols := len(strings.Split(jsonmsg.CSVHeader, ","))
	got := strings.Split(lines[1], ",")
	if len(got) != nCols {
		t.Fatalf("row has %d columns, header %d:\n%s\n%s", len(got), nCols, lines[1], jsonmsg.CSVHeader)
	}
	if got[jsonmsg.ColModule] != "POSIX" || got[jsonmsg.ColProducerName] != "nid00046" || got[jsonmsg.ColOp] != "open" {
		t.Fatalf("row %v", got)
	}
}

func TestCSVMultipleSegs(t *testing.T) {
	m := sample()
	m.Seg = append(m.Seg, m.Seg[0])
	if lines := csvLines(t, &m); len(lines) != 3 {
		t.Fatalf("rows %d", len(lines)-1)
	}
}

// distinct returns a two-segment message whose every column, in the
// message and in each segment, holds a value no other column, segment or
// record (r) holds, set through Table's accessors.
func distinct(r int) jsonmsg.Message {
	m := jsonmsg.Message{Seg: make([]jsonmsg.Segment, 2), Seq: uint64(1000*r + 999)}
	for si := range m.Seg {
		for i := range jsonmsg.Table {
			c := &jsonmsg.Table[i]
			if !c.Seg && si > 0 {
				continue
			}
			n := 1000*r + 100*si + i + 1
			var v any
			switch c.Kind {
			case jsonmsg.KindInt:
				v = int64(n * (1 - 2*(i%2)))
			case jsonmsg.KindUint:
				v = uint64(n)
			case jsonmsg.KindFloat:
				v = float64(n) + 0.25
			case jsonmsg.KindString:
				v = fmt.Sprintf("s%d", n)
			}
			c.Set(&m, &m.Seg[si], v)
		}
	}
	return m
}

// diffColumn names the first column whose value in got and gs is not the
// one in want and ws, or returns "".
func diffColumn(got *jsonmsg.Message, gs *jsonmsg.Segment, want *jsonmsg.Message, ws *jsonmsg.Segment) string {
	for i := range jsonmsg.Table {
		c := &jsonmsg.Table[i]
		if g, w := c.Value(got, gs), c.Value(want, ws); g != w {
			return fmt.Sprintf("column %q: got %v, want %v", c.Key, g, w)
		}
	}
	return ""
}

// diffRow names the first column whose value in row o is not the one in
// want and ws, or returns "".
func diffRow(o sos.Object, want *jsonmsg.Message, ws *jsonmsg.Segment) string {
	if o.Len() != jsonmsg.NumCols {
		return fmt.Sprintf("%d columns, want %d", o.Len(), jsonmsg.NumCols)
	}
	for i := range jsonmsg.Table {
		c := &jsonmsg.Table[i]
		if g, w := o.Value(c.Row), c.Value(want, ws); g != w {
			return fmt.Sprintf("column %q (row position %d): got %v, want %v", c.Key, c.Row, g, w)
		}
	}
	return ""
}

// TestTableHotSites pins each site that spells the columns out one
// statement at a time to Table: every column holds a distinct value, and
// each site must carry it to the column Table names. The sites are the
// fast JSON encoder (FastEncoder, read back by Parse), the typed batch
// codec (appendBody through AppendRecords, read back by DecodeTyped and
// by RowDecoder, whose string ids AppendRow reads), and the row build
// (RowArena.AppendRow, read back through the row's columns). A second
// record makes the codec write every column against record 0's.
func TestTableHotSites(t *testing.T) {
	want := []jsonmsg.Message{distinct(1), distinct(2)}
	failed := map[string]bool{}
	fail := func(site string, rec, seg int, diff string) {
		if diff != "" && !failed[site] {
			failed[site] = true
			t.Errorf("%s: record %d segment %d: %s", site, rec, seg, diff)
		}
	}

	for r := range want {
		got, err := jsonmsg.Parse(jsonmsg.FastEncoder{}.Encode(&want[r]))
		if err != nil {
			t.Fatalf("FastEncoder: record %d: %v", r, err)
		}
		for s := range want[r].Seg {
			fail("FastEncoder", r, s, diffColumn(got, &got.Seg[s], &want[r], &want[r].Seg[s]))
		}
	}

	msgs := make([]streams.Message, len(want))
	for r := range want {
		msgs[r] = streams.Message{Record: event.NewRecord(&want[r], nil)}
	}
	body := streams.AppendRecords(nil, msgs)
	decoded, err := streams.DecodeRecords(streams.BodyV2, body)
	if err != nil || len(decoded) != len(want) {
		t.Fatalf("DecodeRecords: %d records, %v", len(decoded), err)
	}
	for r := range want {
		got, err := event.Fields(decoded[r])
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != want[r].Seq {
			fail("appendBody/DecodeTyped", r, 0, fmt.Sprintf("seq: got %d, want %d", got.Seq, want[r].Seq))
		}
		for s := range want[r].Seg {
			fail("appendBody/DecodeTyped", r, s, diffColumn(got, &got.Seg[s], &want[r], &want[r].Seg[s]))
		}
	}

	arena := dsos.NewRowArena()
	var k streams.BatchContext
	_ = k.Reset(streams.BodyV2, nil)
	w := streams.NewRecordWalker(body, &k)
	if n, err := w.Count(); err != nil || n != len(want) {
		t.Fatalf("Count: %d, %v", n, err)
	}
	for r := range want {
		if _, err := w.Next(); err != nil {
			t.Fatal(err)
		}
		var d event.RowDecoder
		s := 0
		for d.Start(w.Rest(), &k); d.Next(); s++ {
			fail("RowDecoder", r, s, diffColumn(&d.Head, &d.Seg, &want[r], &want[r].Seg[s]))
			tab, ids := d.Strings()
			row := arena.AppendRow(nil, &d.Head, &d.Seg, tab, ids)[0]
			fail("RowDecoder.Strings/AppendRow", r, s, diffRow(row, &want[r], &want[r].Seg[s]))
		}
		if d.Err() != nil || s != len(want[r].Seg) {
			t.Fatalf("RowDecoder: %d segments, %v", s, d.Err())
		}
		w.Skip(d.Len())
	}

	for r := range want {
		for s := range want[r].Seg {
			row := arena.AppendRow(nil, &want[r], &want[r].Seg[s], nil, new([jsonmsg.NumCols]int32))[0]
			fail("AppendRow", r, s, diffRow(row, &want[r], &want[r].Seg[s]))
		}
	}
}

// ordered is a JSON object that keeps its keys in the order given.
type ordered []member

type member struct {
	key string
	val any
}

func (o ordered) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for i, m := range o {
		if i > 0 {
			b = append(b, ',')
		}
		k, _ := json.Marshal(m.key)
		v, err := json.Marshal(m.val)
		if err != nil {
			return nil, err
		}
		b = append(append(append(b, k...), ':'), v...)
	}
	return append(b, '}'), nil
}

// columnSchemas returns the schema of each column of Table whose Seg flag
// is seg, in Table order, and their keys.
func columnSchemas(seg bool) (ordered, []string) {
	var props ordered
	var keys []string
	for i := range jsonmsg.Table {
		c := &jsonmsg.Table[i]
		if c.Seg != seg {
			continue
		}
		var p ordered
		switch c.Kind {
		case jsonmsg.KindInt:
			p = ordered{{"type", "integer"}, {"minimum", int64(math.MinInt64)}, {"maximum", int64(math.MaxInt64)}}
		case jsonmsg.KindUint:
			p = ordered{{"type", "integer"}, {"minimum", 0}, {"maximum", uint64(math.MaxUint64)}}
		case jsonmsg.KindFloat:
			p = ordered{{"type", "number"}, {"$comment", "written with six decimals"}}
		case jsonmsg.KindString:
			p = ordered{{"type", "string"}}
		}
		p = append(p, member{"description", fmt.Sprintf("Fig 3 CSV column %d, %s", c.Row+1, c.Name(":"))})
		props = append(props, member{c.Key, p})
		keys = append(keys, c.Key)
	}
	return props, keys
}

// table1Schema renders Table as a JSON Schema (draft-07) document: the
// JSON message contract, published the way NATS ADR-2 publishes its
// message schemas.
func table1Schema() []byte {
	msg, msgKeys := columnSchemas(false)
	seg, segKeys := columnSchemas(true)
	msg = append(msg,
		member{"seg", ordered{
			{"type", "array"},
			{"description", "the per-operation metrics; one Fig 3 row each"},
			{"items", ordered{
				{"type", "object"},
				{"properties", seg},
				{"required", segKeys},
				{"additionalProperties", false},
			}},
		}},
		member{"seq", ordered{
			{"type", "integer"}, {"minimum", 0}, {"maximum", uint64(math.MaxUint64)},
			{"description", "per-producer sequence number; travels out of band, accepted here, never written by the connector's encoders"},
		}})
	doc := ordered{
		{"$schema", "http://json-schema.org/draft-07/schema#"},
		{"title", "Darshan-LDMS connector message (Table I)"},
		{"description", "The JSON message the connector publishes for every I/O event. The encoders write the keys in the order listed; the store's CSV and row layout orders the same columns as Fig 3. Generated from jsonmsg.Table: go test ./internal/jsonmsg -run TestTable1Schema -args -update"},
		{"type", "object"},
		{"properties", msg},
		{"required", append(msgKeys, "seg")},
		{"additionalProperties", false},
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// TestTable1Schema regenerates the committed JSON message contract from
// Table and requires it byte for byte. -update rewrites it.
func TestTable1Schema(t *testing.T) {
	const path = "../../docs/table1.schema.json"
	got := table1Schema()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s is stale; regenerate it with -update:\n%s", path, got)
	}
}
