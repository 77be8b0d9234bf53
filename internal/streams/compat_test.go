package streams_test

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

var update = flag.Bool("update", false, "rewrite the frozen segment in testdata")

// Hand-built version-1 segment records, byte for byte as the layouts in
// segment.go and record.go give them, independent of any writer in the
// package.

func v1Str(b []byte, s string) []byte { // a record-codec string
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func segStr(b []byte, s string) []byte { // a segment-record string
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// v1Batch is a 0x04 version-1 entry of msgs from firstSeq; a message with
// a Record is written typed.
func v1Batch(firstSeq uint64, at time.Duration, msgs []streams.Message) []byte {
	b := []byte{0x04, streams.BodyV1}
	b = binary.LittleEndian.AppendUint64(b, firstSeq)
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	b = binary.AppendUvarint(b, uint64(len(msgs)))
	for _, m := range msgs {
		kind := byte(streams.RecOpaque)
		if m.Record != nil {
			kind = streams.RecTyped
		}
		b = append(b, kind)
		b = v1Str(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Type))
		b = v1Str(b, m.Producer)
		b = binary.AppendUvarint(b, m.Seq)
		if kind == streams.RecTyped {
			f, _ := event.Fields(m)
			b = event.AppendMessage(b, f)
		} else {
			b = v1Str(b, string(m.Data))
		}
	}
	return b
}

func legacyMsg(seq uint64, at time.Duration, m streams.Message) []byte {
	b := []byte{0x01}
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, byte(m.Type))
	b = binary.LittleEndian.AppendUint64(b, uint64(at))
	b = binary.LittleEndian.AppendUint64(b, m.Seq)
	b = segStr(b, m.Tag)
	b = segStr(b, m.Producer)
	return segStr(b, string(m.Data))
}

func cursorRec(name string, floor uint64) []byte {
	return segStr(binary.LittleEndian.AppendUint64([]byte{0x02}, floor), name)
}

func dropRec(reason streams.DropReason, newFirst uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{0x03, byte(reason)}, newFirst)
}

func typedAt(seq uint64, producer string) streams.Message {
	f := sampleFields(seq)
	f.ProducerName = producer
	return streams.Message{Tag: "darshan." + producer + ".POSIX", Type: streams.TypeJSON, Record: event.NewRecord(f, nil), Producer: producer, Seq: seq}
}

// TestV1SegmentReadCompat: a segment the version-1 writer left — a legacy
// 0x01 msg entry, 0x04 batches of typed and opaque records, a cursor
// record and a drop that trims into the middle of a batch — reopens to the
// same messages, floors and drop counts. Its bytes are frozen in
// testdata/segment-v1.bin (go test -run V1SegmentReadCompat -update
// rewrites them).
func TestV1SegmentReadCompat(t *testing.T) {
	msgs := []streams.Message{
		{Tag: "darshan.nid00040.raw", Type: streams.TypeJSON, Data: []byte(`{"n":1}`), Producer: "nid00040", Seq: 1},
		typedAt(2, "nid00046"),
		{Tag: "darshan.nid00046.note", Type: streams.TypeString, Data: []byte("hello")},
		typedAt(4, "nid00047"),
		typedAt(5, "nid00046"),
		{Tag: "darshan.nid00040.raw", Type: streams.TypeJSON, Data: []byte(`{"n":6}`), Producer: "nid00040", Seq: 6},
	}
	seg := sos.NewMemWAL()
	for _, rec := range [][]byte{
		legacyMsg(1, 10, msgs[0]),
		v1Batch(2, 20, msgs[1:4]),
		cursorRec("ingest", 2),
		dropRec(streams.DropByCount, 3), // seqs 1 and 2: the legacy entry and half a batch
		v1Batch(5, 30, msgs[4:]),
		cursorRec("ingest", 4),
	} {
		if err := streams.AppendFrame(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	var built bytes.Buffer
	r, err := seg.Open()
	if err != nil {
		t.Fatal(err)
	}
	_, _ = built.ReadFrom(r)
	golden := filepath.Join("testdata", "segment-v1.bin")
	if *update {
		if err := os.WriteFile(golden, built.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frozen, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frozen, built.Bytes()) {
		t.Fatal("the hand-built version-1 segment no longer matches testdata/segment-v1.bin")
	}
	wal := &readCounter{MemWAL: sos.NewMemWAL()}
	_, _ = wal.Write(frozen)
	s, err := streams.OpenStream(streams.StreamConfig{Name: "compat"}, wal)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FirstSeq != 3 || st.LastSeq != 6 || st.Msgs != 4 || st.Dropped != 2 || st.DroppedFor[streams.DropByCount] != 2 {
		t.Fatalf("reopened stats %+v", st)
	}
	if cs := s.ConsumerStats(); len(cs) != 1 || cs[0].Name != "ingest" || cs[0].AckFloor != 4 {
		t.Fatalf("reopened cursors %+v", cs)
	}
	c, err := s.Consumer(streams.ConsumerConfig{Name: "all", StartSeq: 1})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(8)
	if err != nil || len(ds) != 4 {
		t.Fatalf("fetched %d (%v), want 4", len(ds), err)
	}
	for i, d := range ds {
		if d.Seq != uint64(i+3) {
			t.Fatalf("delivery %d has seq %d", i, d.Seq)
		}
		sameMessage(t, d.Msg, msgs[i+2])
	}

	// Settled, the same history reads back from the segment: once both
	// cursors pass it, a late joiner gets it by reading the version-1
	// entries again, before and after a reopen.
	if err := c.AckBatch(ds); err != nil {
		t.Fatal(err)
	}
	ingest, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	if ds, err = ingest.Fetch(8); err != nil || len(ds) != 2 || ingest.AckBatch(ds) != nil {
		t.Fatalf("ingest fetched %d (%v), want 2", len(ds), err)
	}
	for round := 0; round < 2; round++ {
		late, err := s.Consumer(streams.ConsumerConfig{Name: fmt.Sprintf("late-%d", round), StartSeq: 1})
		if err != nil {
			t.Fatal(err)
		}
		reads := wal.reads
		ds, err := late.Fetch(8)
		if err != nil || len(ds) != 4 || wal.reads == reads {
			t.Fatalf("late joiner fetched %d (%v) in %d read-backs, want 4 from the segment", len(ds), err, wal.reads-reads)
		}
		for i, d := range ds {
			if d.Seq != uint64(i+3) {
				t.Fatalf("delivery %d has seq %d", i, d.Seq)
			}
			sameMessage(t, d.Msg, msgs[i+2])
		}
		if err := late.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
		if s, err = streams.OpenStream(streams.StreamConfig{Name: "compat"}, wal); err != nil {
			t.Fatal(err)
		}
	}
}

// readCounter is a MemWAL that counts read-backs.
type readCounter struct {
	*sos.MemWAL
	reads int
}

func (w *readCounter) ReadAt(p []byte, off int64) (int, error) {
	w.reads++
	return w.MemWAL.ReadAt(p, off)
}

// sameMessage fails unless got carries want's envelope and payload, typed
// fields compared by their version-1 encoding (which keeps float bits).
func sameMessage(t *testing.T, got, want streams.Message) {
	t.Helper()
	if got.Tag != want.Tag || got.Type != want.Type || got.Producer != want.Producer || got.Seq != want.Seq {
		t.Fatalf("envelope: got %+v, want %+v", got, want)
	}
	if want.Record == nil {
		if !bytes.Equal(got.Data, want.Data) || got.Record != nil {
			t.Fatalf("opaque payload: got %+v, want %q", got, want.Data)
		}
		return
	}
	wf, _ := event.Fields(want)
	gf, err := event.Fields(got)
	if err != nil || !bytes.Equal(event.AppendMessage(nil, gf), event.AppendMessage(nil, wf)) {
		t.Fatalf("typed fields: got %+v (%v), want %+v", gf, err, wf)
	}
}

// batchFromSeed builds a batch of records from a fuzz input: its shape —
// size, share of opaque records, how many distinct strings — from the
// first bytes, the contents from a generator seeded with the rest.
func batchFromSeed(data []byte) (msgs []streams.Message, keep int) {
	var shape [4]byte
	copy(shape[:], data)
	var seed int64
	for _, b := range data[min(len(data), 4):] {
		seed = seed*131 + int64(b)
	}
	r := rand.New(rand.NewSource(seed))
	n := 1 + int(shape[0])%200
	pool := [...]int{4, 40, 300, 1 << 30}[shape[2]%4] // distinct values per string column
	str := func(col string) string {
		return fmt.Sprintf("%s-%d", col, r.Intn(pool))
	}
	num := func() int64 { // near-equal, far apart, negative and extreme values
		switch r.Intn(4) {
		case 0:
			return r.Int63n(16)
		case 1:
			return r.Int63() - math.MaxInt64/2
		case 2:
			return -r.Int63n(1 << 20)
		}
		return []int64{math.MinInt64, math.MaxInt64, 0, -1}[r.Intn(4)]
	}
	for i := 0; i < n; i++ {
		m := streams.Message{Tag: str("tag"), Type: streams.MsgType(r.Intn(2)), Producer: str("nid"), Seq: uint64(num())}
		if r.Intn(4) < int(shape[1]%5) {
			m.Data = []byte(str("payload"))
			msgs = append(msgs, m)
			continue
		}
		f := &jsonmsg.Message{
			UID: num(), Exe: str("exe"), JobID: num(), Rank: int(num()), ProducerName: str("nid"),
			File: str("/lscratch/file"), RecordID: uint64(num()), Module: str("mod"), Type: str("type"),
			MaxByte: num(), Switches: num(), Flushes: num(), Cnt: num(), Op: str("op"), Seq: uint64(num()),
		}
		for j := r.Intn(3); j > 0; j-- {
			f.Seg = append(f.Seg, jsonmsg.Segment{
				DataSet: str("ds"), PtSel: num(), IrregHSlab: num(), RegHSlab: num(), NDims: num(), NPoints: num(),
				Off: num(), Len: num(), Dur: math.Float64frombits(r.Uint64()), Timestamp: 1.6e9 + r.Float64()*float64(num()),
			})
		}
		m.Record = event.NewRecord(f, nil)
		msgs = append(msgs, m)
	}
	return msgs, 1 + int(shape[3])%n
}

// FuzzBatchV2 holds the version-2 batch body to the version-1 reference
// writer on random batches — opaque records, batches of one, hundreds of
// distinct strings (multi-byte ids), extreme numbers and float bits: both
// encodings decode back to the batch. A durable stream holding the batch
// behind a retention trim that lands inside it delivers every retained
// record decoded on its own, live and after a reopen, and so does a
// stream reopened from the batch as a version-1 entry.
func FuzzBatchV2(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{63, 2, 1, 20, 7})
	f.Add([]byte{199, 1, 2, 150, 1, 2, 3})
	f.Add([]byte{160, 4, 3, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, keep := batchFromSeed(data)
		for _, version := range []byte{streams.BodyV2, streams.BodyV1} {
			body := streams.AppendRecords(nil, msgs)
			if version == streams.BodyV1 {
				body = streams.AppendRecordsV1(nil, msgs)
			}
			got, err := streams.DecodeRecords(version, body)
			if err != nil || len(got) != len(msgs) {
				t.Fatalf("v%d decode: %d of %d records, %v", version, len(got), len(msgs), err)
			}
			for i := range msgs {
				sameMessage(t, got[i], msgs[i])
			}
		}

		cfg := streams.StreamConfig{Name: "fz", Retention: streams.RetentionPolicy{MaxMsgs: keep}}
		wal := sos.NewMemWAL()
		s, err := streams.OpenStream(cfg, wal)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendBatch(msgs); err != nil {
			t.Fatal(err)
		}
		v1 := sos.NewMemWAL()
		entry := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64([]byte{0x04, streams.BodyV1}, 1), 0)
		if err := streams.AppendFrame(v1, streams.AppendRecordsV1(entry, msgs)); err != nil {
			t.Fatal(err)
		}
		for round, wal := range []sos.WALStore{nil, wal, v1} {
			st := s
			if wal != nil {
				if st, err = streams.OpenStream(cfg, wal); err != nil {
					t.Fatalf("round %d reopen: %v", round, err)
				}
			}
			c, err := st.Consumer(streams.ConsumerConfig{Name: fmt.Sprint("r", round), StartSeq: 1})
			if err != nil {
				t.Fatal(err)
			}
			got := 0
			for {
				ds, err := c.Fetch(len(msgs))
				if err != nil {
					t.Fatal(err)
				}
				if len(ds) == 0 {
					break
				}
				for _, d := range ds {
					sameMessage(t, d.Msg, msgs[d.Seq-1])
					if err := c.Ack(d.Seq); err != nil {
						t.Fatal(err)
					}
				}
				got += len(ds)
			}
			if got != keep {
				t.Fatalf("round %d: fetched %d of %d retained", round, got, keep)
			}
		}
	})
}
