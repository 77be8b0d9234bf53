package streams_test

import (
	"bytes"
	"reflect"
	"sync/atomic"
	"testing"

	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// These tests need the typed plane's record codec, which internal/event
// registers; they live outside package streams because event imports it.

func sampleFields(seq uint64) *jsonmsg.Message {
	return &jsonmsg.Message{
		UID: 99066, Exe: "/projects/mpi-io-test", JobID: 259903, Rank: int(seq % 8),
		ProducerName: "nid00046", File: "/nscratch/mpi-io-test.dat", RecordID: 9,
		Module: "POSIX", Type: jsonmsg.TypeMOD, MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "write",
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1, NPoints: -1,
			Off: int64(seq) * 4096, Len: 4096, Dur: jsonmsg.Quant6(0.000125), Timestamp: jsonmsg.Quant6(1.6e9 + float64(seq)),
		}},
		Seq: seq,
	}
}

func openStream(t *testing.T, wal sos.WALStore) *streams.DurableStream {
	t.Helper()
	s, err := streams.OpenStream(streams.StreamConfig{Name: "darshan"}, wal)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestStreamLazyPayloadNotForced is the opposite of what the stream used
// to promise: appending a typed record stores its fields in binary and
// does NOT force the JSON encode, the delivered record is typed-first,
// and the text is still there for whoever asks — rendered then, by the
// fast encoder, from the stored fields.
func TestStreamLazyPayloadNotForced(t *testing.T) {
	wal := sos.NewMemWAL()
	s := openStream(t, wal)
	var encoded atomic.Uint64
	rec := event.NewRecord(sampleFields(1), jsonmsg.FastEncoder{}).CountEncodes(&encoded)
	if _, err := s.Append(streams.Message{Tag: "t", Type: streams.TypeJSON, Record: rec, Producer: "nid00046", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if rec.Encoded() || encoded.Load() != 0 {
		t.Fatalf("append forced the JSON encode (%d bytes)", encoded.Load())
	}
	r, err := wal.Open()
	if err != nil {
		t.Fatal(err)
	}
	var seg bytes.Buffer
	_, _ = seg.ReadFrom(r)
	r.Close()
	if bytes.Contains(seg.Bytes(), []byte(`"seg":[`)) || bytes.Contains(seg.Bytes(), []byte(`"module"`)) {
		t.Fatal("segment holds JSON text")
	}
	for _, st := range []*streams.DurableStream{s, openStream(t, wal)} {
		c, _ := st.Consumer(streams.ConsumerConfig{Name: "r"})
		ds, err := c.Fetch(1)
		if err != nil || len(ds) != 1 {
			t.Fatalf("fetch: %v %v", ds, err)
		}
		got, ok := ds[0].Msg.Record.(*event.Record)
		if !ok || got.TypedFields() == nil || got.Encoded() {
			t.Fatalf("delivery is not a typed-first, unencoded record: %+v", ds[0].Msg)
		}
		if !reflect.DeepEqual(got.TypedFields(), sampleFields(1)) {
			t.Fatalf("fields changed at rest:\n got %+v\nwant %+v", got.TypedFields(), sampleFields(1))
		}
		if want := (jsonmsg.FastEncoder{}).Encode(sampleFields(1)); !bytes.Equal(ds[0].Msg.Payload(), want) {
			t.Fatalf("payload on demand:\n got %s\nwant %s", ds[0].Msg.Payload(), want)
		}
	}
}

// TestAppendBatchMixedRoundTrip: typed, opaque-JSON and string messages
// in one AppendBatch come back field for field — subject, type, producer
// and producer sequence included — live and after a reopen.
func TestAppendBatchMixedRoundTrip(t *testing.T) {
	in := []streams.Message{
		{Tag: "darshan.nid00046.POSIX", Type: streams.TypeJSON, Record: event.NewRecord(sampleFields(1), nil), Producer: "nid00046", Seq: 1},
		{Tag: "darshan.nid00046.raw", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "nid00046", Seq: 2},
		{Tag: "darshan.nid00046.note", Type: streams.TypeString, Data: []byte("hello")},
		{Tag: "darshan.nid00046.POSIX", Type: streams.TypeJSON, Record: event.NewRecord(sampleFields(4), jsonmsg.FastEncoder{}), Producer: "nid00046", Seq: 4},
		// A bytes-first record nothing has parsed travels as its bytes.
		{Tag: "darshan.nid00046.raw", Type: streams.TypeJSON, Data: []byte(`{"op":"close"}`), Record: event.FromPayload([]byte(`{"op":"close"}`)), Producer: "nid00047", Seq: 1},
	}
	wal := sos.NewMemWAL()
	s := openStream(t, wal)
	first, err := s.AppendBatch(in)
	if err != nil || first != 1 {
		t.Fatalf("AppendBatch: seq %d, %v", first, err)
	}
	if st := s.Stats(); st.LastSeq != 5 || st.Msgs != 5 {
		t.Fatalf("stats %+v", st)
	}
	for _, st := range []*streams.DurableStream{s, openStream(t, wal)} {
		c, _ := st.Consumer(streams.ConsumerConfig{Name: "r"})
		ds, err := c.Fetch(8)
		if err != nil || len(ds) != len(in) {
			t.Fatalf("fetched %d of %d (%v)", len(ds), len(in), err)
		}
		for i, d := range ds {
			want, got := in[i], d.Msg
			if d.Seq != uint64(i+1) || got.Tag != want.Tag || got.Type != want.Type || got.Producer != want.Producer || got.Seq != want.Seq {
				t.Fatalf("message %d envelope: got %+v (seq %d), want %+v", i, got, d.Seq, want)
			}
			if want.Data != nil {
				if !bytes.Equal(got.Data, want.Data) || got.Record != nil {
					t.Fatalf("message %d: opaque payload came back as %+v", i, got)
				}
				continue
			}
			wantFields, _ := event.Fields(want)
			gotFields, err := event.Fields(got)
			if err != nil || !reflect.DeepEqual(gotFields, wantFields) {
				t.Fatalf("message %d fields: %+v (%v), want %+v", i, gotFields, err, wantFields)
			}
			if !bytes.Equal(got.Payload(), (jsonmsg.FastEncoder{}).Encode(wantFields)) {
				t.Fatalf("message %d: payload is not the fast encoder's rendering of its fields", i)
			}
		}
	}
}
