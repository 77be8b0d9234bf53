package jsonmsg

import (
	"encoding/json"
	"testing"
	"testing/quick"
	"time"

	"darshanldms/internal/darshan"
)

func sampleMsg() Message {
	return Message{
		UID: 99066, Exe: "/projects/mpi-io-test", JobID: 259903, Rank: 3,
		ProducerName: "nid00046", File: "/nscratch/mpi-io-test.dat",
		RecordID: 1601543006480900062 % (1 << 62), Module: "POSIX", Type: TypeMET,
		MaxByte: -1, Switches: -1, Flushes: -1, Cnt: 1, Op: "open",
		Seg: []Segment{{
			DataSet: NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1, NDims: -1,
			NPoints: -1, Off: 0, Len: 16 << 20, Dur: 0.35, Timestamp: EpochBase + 12.5,
		}},
	}
}

func TestEncodersProduceIdenticalValidJSON(t *testing.T) {
	m := sampleMsg()
	fast := FastEncoder{}.Encode(&m)
	sprintf := SprintfEncoder{}.Encode(&m)
	var a, b map[string]any
	if err := json.Unmarshal(fast, &a); err != nil {
		t.Fatalf("fast output invalid: %v\n%s", err, fast)
	}
	if err := json.Unmarshal(sprintf, &b); err != nil {
		t.Fatalf("sprintf output invalid: %v\n%s", err, sprintf)
	}
	if string(fast) != string(sprintf) {
		t.Fatalf("encoders disagree:\nfast:    %s\nsprintf: %s", fast, sprintf)
	}
}

func TestRoundTrip(t *testing.T) {
	m := sampleMsg()
	for _, enc := range []Encoder{FastEncoder{}, SprintfEncoder{}} {
		got, err := Parse(enc.Encode(&m))
		if err != nil {
			t.Fatalf("%s: %v", enc.Name(), err)
		}
		if got.UID != m.UID || got.Rank != m.Rank || got.ProducerName != m.ProducerName ||
			got.RecordID != m.RecordID || got.Op != m.Op || got.Type != m.Type {
			t.Fatalf("%s round trip: %+v", enc.Name(), got)
		}
		if len(got.Seg) != 1 || got.Seg[0].Len != m.Seg[0].Len || got.Seg[0].Timestamp != m.Seg[0].Timestamp {
			t.Fatalf("%s seg round trip: %+v", enc.Name(), got.Seg)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(uid int64, rank uint16, max, sw, fl, cnt int64, off, ln int64) bool {
		m := sampleMsg()
		m.UID, m.Rank = uid, int(rank)
		m.MaxByte, m.Switches, m.Flushes, m.Cnt = max, sw, fl, cnt
		m.Seg[0].Off, m.Seg[0].Len = off, ln
		got, err := Parse(FastEncoder{}.Encode(&m))
		if err != nil {
			return false
		}
		return got.UID == uid && got.Rank == int(rank) && got.MaxByte == max &&
			got.Switches == sw && got.Flushes == fl && got.Cnt == cnt &&
			got.Seg[0].Off == off && got.Seg[0].Len == ln
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuotingSpecialCharacters(t *testing.T) {
	m := sampleMsg()
	m.File = `/path/with "quotes"/and\backslash`
	got, err := Parse(FastEncoder{}.Encode(&m))
	if err != nil {
		t.Fatal(err)
	}
	if got.File != m.File {
		t.Fatalf("file %q", got.File)
	}
}

func TestFromEventMETForOpen(t *testing.T) {
	ev := &darshan.Event{
		Module: darshan.ModPOSIX, Op: darshan.OpOpen, Rank: 3,
		Producer: "nid00046", File: "/nscratch/f.dat",
		RecordID: darshan.RecordID("/nscratch/f.dat"),
		Start:    10 * time.Second, End: 10*time.Second + 300*time.Millisecond,
	}
	meta := JobMeta{UID: 99066, JobID: 259903, Exe: "/projects/mpi-io-test"}
	m := FromEvent(ev, meta)
	if m.Type != TypeMET {
		t.Fatalf("open should be MET, got %s", m.Type)
	}
	if m.Exe != meta.Exe || m.File != ev.File {
		t.Fatalf("MET must carry absolute paths: %+v", m)
	}
	if m.Seg[0].Timestamp != EpochBase+10.3 {
		t.Fatalf("timestamp %v", m.Seg[0].Timestamp)
	}
	if m.Seg[0].Dur != 0.3 {
		t.Fatalf("dur %v", m.Seg[0].Dur)
	}
}

func TestFromEventMODForWrite(t *testing.T) {
	ev := &darshan.Event{
		Module: darshan.ModPOSIX, Op: darshan.OpWrite, Rank: 1,
		Producer: "nid00041", File: "/nscratch/f.dat",
		RecordID: 7, Offset: 4096, Length: 65536,
	}
	m := FromEvent(ev, JobMeta{UID: 1, JobID: 2, Exe: "/bin/app"})
	if m.Type != TypeMOD {
		t.Fatalf("write should be MOD")
	}
	if m.Exe != NA || m.File != NA {
		t.Fatalf("MOD must not carry paths: exe=%q file=%q", m.Exe, m.File)
	}
	if m.Seg[0].Off != 4096 || m.Seg[0].Len != 65536 {
		t.Fatalf("seg %+v", m.Seg[0])
	}
	// Non-HDF5: hyperslab metrics are -1, dataset N/A.
	if m.Seg[0].NDims != -1 || m.Seg[0].DataSet != NA {
		t.Fatalf("posix seg should have h5 placeholders: %+v", m.Seg[0])
	}
}

func TestFromEventHDF5(t *testing.T) {
	ev := &darshan.Event{
		Module: darshan.ModH5D, Op: darshan.OpWrite, Rank: 0,
		Producer: "nid00040", File: "/lscratch/out.h5", RecordID: 9,
		H5: &darshan.H5Info{DataSet: "temp", NDims: 3, NPoints: 1000, PtSel: 2, RegHSlab: 1},
	}
	m := FromEvent(ev, JobMeta{})
	s := m.Seg[0]
	if s.DataSet != "temp" || s.NDims != 3 || s.NPoints != 1000 || s.PtSel != 2 || s.RegHSlab != 1 {
		t.Fatalf("h5 seg %+v", s)
	}
}

func TestNoneEncoderTiny(t *testing.T) {
	m := sampleMsg()
	out := NoneEncoder{}.Encode(&m)
	if len(out) > 32 {
		t.Fatalf("none encoder output too large: %d bytes", len(out))
	}
	var v map[string]any
	if err := json.Unmarshal(out, &v); err != nil {
		t.Fatalf("none output should still be JSON: %v", err)
	}
}

func TestSimCostOrdering(t *testing.T) {
	s, f, n := SprintfEncoder{}.SimCost(), FastEncoder{}.SimCost(), NoneEncoder{}.SimCost()
	if !(s > 10*f && f > 10*n) {
		t.Fatalf("cost ordering violated: sprintf=%v fast=%v none=%v", s, f, n)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("{not json")); err == nil {
		t.Fatal("expected parse error")
	}
}

func BenchmarkSprintfEncode(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SprintfEncoder{}.Encode(&m)
	}
}

func BenchmarkFastEncode(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FastEncoder{}.Encode(&m)
	}
}

func BenchmarkNoneEncode(b *testing.B) {
	m := sampleMsg()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = NoneEncoder{}.Encode(&m)
	}
}

func BenchmarkParse(b *testing.B) {
	m := sampleMsg()
	data := FastEncoder{}.Encode(&m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}
