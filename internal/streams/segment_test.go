package streams

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// entry and encodeMsgEntry are the pre-batch segment writer, kept here as
// the reference for what old segments hold: one msg entry per message,
// the payload as text. No non-test code writes this kind any more.
type entry struct {
	seq      uint64
	subject  string
	mtype    MsgType
	payload  []byte
	producer string
	pseq     uint64
	at       time.Duration
}

func encodeMsgEntry(e *entry) []byte {
	b := make([]byte, 0, 1+8+1+8+8+12+len(e.subject)+len(e.producer)+len(e.payload))
	b = append(b, segKindMsg)
	b = binary.LittleEndian.AppendUint64(b, e.seq)
	b = append(b, byte(e.mtype))
	b = binary.LittleEndian.AppendUint64(b, uint64(e.at))
	b = binary.LittleEndian.AppendUint64(b, e.pseq)
	b = appendStr(b, e.subject)
	b = appendStr(b, e.producer)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(e.payload)))
	return append(b, e.payload...)
}

func encodeCursorEntry(consumer string, floor uint64) []byte {
	return appendCursorEntry(nil, consumer, floor)
}

func encodeDropEntry(reason DropReason, newFirst uint64) []byte {
	return appendDropEntry(nil, reason, newFirst)
}

// walBytes returns a copy of everything the segment holds.
func walBytes(t testing.TB, wal *sos.MemWAL) []byte {
	t.Helper()
	r, err := wal.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// drain fetches and acks everything the consumer can currently deliver.
func drain(t testing.TB, c *Consumer) []Delivery {
	t.Helper()
	var all []Delivery
	for {
		ds, err := c.Fetch(16)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) == 0 {
			return all
		}
		if err := c.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
		all = append(all, ds...)
	}
}

// TestLegacySegmentReopens: a segment written by the pre-batch encoder —
// JSON, string and stamped messages, a cursor, a drop marker — reopens
// with the same messages, floors, window and drop counts, takes new
// appends in the batch format, and reopens again with both.
func TestLegacySegmentReopens(t *testing.T) {
	old := []entry{
		{seq: 1, at: 10, subject: "darshan.n.posix", mtype: TypeJSON, payload: []byte(`{"op":"open"}`)},
		{seq: 2, at: 20, subject: "darshan.n.posix", mtype: TypeJSON, payload: []byte(`{"op":"write"}`), producer: "nid00040", pseq: 7},
		{seq: 3, at: 30, subject: "darshan.n.note", mtype: TypeString, payload: []byte("hello")},
		{seq: 4, at: 40, subject: "darshan.n.posix", mtype: TypeJSON, payload: []byte(`{"op":"close"}`), producer: "nid00040", pseq: 8},
		{seq: 5, at: 50, subject: "darshan.n.empty", mtype: TypeString},
	}
	wal := sos.NewMemWAL()
	for i := range old {
		if err := AppendFrame(wal, encodeMsgEntry(&old[i])); err != nil {
			t.Fatal(err)
		}
	}
	_ = AppendFrame(wal, encodeDropEntry(DropByCount, 2))
	_ = AppendFrame(wal, encodeCursorEntry("reader", 3))

	check := func(s *DurableStream, wantLast uint64) []Delivery {
		t.Helper()
		st := s.Stats()
		if st.FirstSeq != 2 || st.LastSeq != wantLast || st.Dropped != 1 || st.DroppedFor[DropByCount] != 1 {
			t.Fatalf("recovered stats %+v", st)
		}
		checkConservation(t, s)
		c, err := s.Consumer(ConsumerConfig{Name: "reader"})
		if err != nil {
			t.Fatal(err)
		}
		if c.AckFloor() != 3 {
			t.Fatalf("resumed floor %d, want 3", c.AckFloor())
		}
		all, err := s.Consumer(ConsumerConfig{Name: "fresh"})
		if err != nil {
			t.Fatal(err)
		}
		ds, err := all.Fetch(16)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
	ds := check(s, 5)
	if len(ds) != 4 {
		t.Fatalf("fetched %d legacy messages, want 4", len(ds))
	}
	for i, d := range ds {
		e := old[i+1]
		want := Message{Tag: e.subject, Type: e.mtype, Data: e.payload, Producer: e.producer, Seq: e.pseq}
		if d.Seq != e.seq || !reflect.DeepEqual(d.Msg, want) {
			t.Fatalf("legacy seq %d came back as %+v, want %+v", e.seq, d, want)
		}
	}
	if st := s.Stats(); st.Bytes != int64(len(`{"op":"write"}`)+len("hello")+len(`{"op":"close"}`)) {
		t.Fatalf("retained bytes %d", st.Bytes)
	}

	// New appends land behind the legacy entries, in the batch format.
	before := len(walBytes(t, wal))
	if seq := mustAppend(t, s, "darshan.n.posix", `{"op":"read"}`); seq != 6 {
		t.Fatalf("append after legacy recovery got seq %d", seq)
	}
	if tail := walBytes(t, wal)[before:]; tail[8] != segKindBatch || tail[9] != segBatchVersion {
		t.Fatalf("new entry starts % x, want the batch kind and version", tail[8:10])
	}
	ds = check(mustOpenStream(t, StreamConfig{Name: "darshan"}, wal), 6)
	if len(ds) != 5 || string(ds[4].Msg.Data) != `{"op":"read"}` || ds[4].Seq != 6 {
		t.Fatalf("mixed-format segment reopened as %+v", ds)
	}
}

// TestBatchEntryTornDropsWholeBatch: a batch is one CRC frame, so a torn
// write loses all of it and none of the batch before; sequences stay
// contiguous and the next append reuses the lost batch's sequences.
func TestBatchEntryTornDropsWholeBatch(t *testing.T) {
	wal := sos.NewMemWAL()
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
	batch := func(from, n int) []Message {
		out := make([]Message, n)
		for i := range out {
			out[i] = Message{Tag: "darshan.n.posix", Type: TypeJSON, Data: []byte{'0' + byte(from+i)}}
		}
		return out
	}
	if first, err := s.AppendBatch(batch(1, 3)); err != nil || first != 1 {
		t.Fatalf("first batch: seq %d, %v", first, err)
	}
	clean := wal.Len()
	if first, err := s.AppendBatch(batch(4, 4)); err != nil || first != 4 {
		t.Fatalf("second batch: seq %d, %v", first, err)
	}
	for _, cut := range []int{wal.Len() - 1, clean + 9, clean + 3} {
		torn := sos.NewMemWAL()
		_, _ = torn.Write(walBytes(t, wal)[:cut])
		s2 := mustOpenStream(t, StreamConfig{Name: "darshan"}, torn)
		if st := s2.Stats(); st.LastSeq != 3 || st.Msgs != 3 {
			t.Fatalf("cut at %d: recovered %+v, want exactly the first batch", cut, st)
		}
		if first, err := s2.AppendBatch(batch(4, 2)); err != nil || first != 4 {
			t.Fatalf("cut at %d: append after recovery: seq %d, %v", cut, first, err)
		}
		c, _ := s2.Consumer(ConsumerConfig{Name: "r"})
		ds := drain(t, c)
		if len(ds) != 5 {
			t.Fatalf("cut at %d: %d messages after recovery, want 5", cut, len(ds))
		}
		for i, d := range ds {
			if d.Seq != uint64(i+1) || d.Msg.Data[0] != '1'+byte(i) {
				t.Fatalf("cut at %d: delivery %d is seq %d %q", cut, i, d.Seq, d.Msg.Data)
			}
		}
	}
}

// TestBatchEntryHostileCountStopsReplay: a CRC-clean batch entry whose
// record count or inner length lies is a torn tail — replay stops before
// it, keeps what came before, and never sizes an allocation from the lie.
func TestBatchEntryHostileCountStopsReplay(t *testing.T) {
	good := appendBatchHeader(nil, 2, 5)
	good = AppendRecords(good, []Message{{Tag: "t", Type: TypeString, Data: []byte("x")}})
	hostile := [][]byte{
		binary.AppendUvarint(appendBatchHeader(nil, 2, 5), 1<<40),                                     // count with no records
		append(binary.AppendUvarint(appendBatchHeader(nil, 2, 5), 1<<62), good[segBatchHeader+1:]...), // count far beyond the bytes
		append(append([]byte{}, good[:len(good)-2]...), 0xFF, 0xFF),                                   // payload length past the end
		append(append([]byte{}, good...), 0),                                                          // trailing byte
		appendBatchHeader(nil, 2, 5),                                                                  // header only
		AppendRecords(appendBatchHeader(nil, 9, 5), []Message{{Tag: "t"}}),                            // sequence gap
		append([]byte{segKindBatch, 9}, good[2:]...),                                                  // unknown version
	}
	for i, body := range hostile {
		wal := sos.NewMemWAL()
		s := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
		mustAppend(t, s, "t", "first")
		if err := AppendFrame(wal, body); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1, func() {
			s = mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
		})
		if st := s.Stats(); st.LastSeq != 1 || st.Msgs != 1 {
			t.Fatalf("hostile body %d: recovered %+v, want the one clean message", i, st)
		}
		if allocs > 200 {
			t.Fatalf("hostile body %d: reopen made %.0f allocations", i, allocs)
		}
	}
	// The well-formed body does replay: the cases above fail for what
	// they corrupt, not for how the test builds them.
	wal := sos.NewMemWAL()
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal)
	mustAppend(t, s, "t", "first")
	_ = AppendFrame(wal, good)
	if st := mustOpenStream(t, StreamConfig{Name: "darshan"}, wal).Stats(); st.LastSeq != 2 {
		t.Fatalf("well-formed hand-built batch did not replay: %+v", st)
	}
}

// TestRetentionTrimsInsideBatch: a count bound that cuts into the middle
// of a batch keeps the drop accounting exact across a reopen, and a
// consumer lagging inside that batch counts what it missed exactly.
func TestRetentionTrimsInsideBatch(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "darshan", Retention: RetentionPolicy{MaxMsgs: 5}}
	s := mustOpenStream(t, cfg, wal)
	batch := func(n int) []Message {
		out := make([]Message, n)
		for i := range out {
			out[i] = Message{Tag: "t", Type: TypeString, Data: []byte("0123456789")}
		}
		return out
	}
	if _, err := s.AppendBatch(batch(4)); err != nil {
		t.Fatal(err)
	}
	lag, _ := s.Consumer(ConsumerConfig{Name: "lag"})
	ds, err := lag.Fetch(1)
	if err != nil || len(ds) != 1 {
		t.Fatalf("fetch: %v %v", ds, err)
	}
	if err := lag.Ack(1); err != nil {
		t.Fatal(err)
	}
	// Seven more: the window keeps 7..11, trimming seqs 1..6 — all of the
	// first batch and the first two of this one.
	if _, err := s.AppendBatch(batch(7)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*DurableStream{s, mustOpenStream(t, cfg, wal)} {
		st := s.Stats()
		if st.FirstSeq != 7 || st.LastSeq != 11 || st.Msgs != 5 || st.DroppedFor[DropByCount] != 6 || st.Bytes != 50 {
			t.Fatalf("stats %+v", st)
		}
		checkConservation(t, s)
	}
	ds = drain(t, lag)
	if len(ds) != 5 || ds[0].Seq != 7 {
		t.Fatalf("lagging consumer got %d deliveries from seq %d", len(ds), ds[0].Seq)
	}
	if cs := lag.Stats(); cs.Missed != 5 || cs.AckFloor != 11 {
		t.Fatalf("lagging consumer stats %+v, want 5 missed (seqs 2..6)", cs)
	}
}

// TestAppendBatchOneFrameOneWrite pins the point of the batch entry: N
// messages cost one segment write and one CRC frame, and Append is the
// batch of one.
func TestAppendBatchOneFrameOneWrite(t *testing.T) {
	cw := &countingWAL{MemWAL: sos.NewMemWAL()}
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, cw)
	msgs := make([]Message, 64)
	for i := range msgs {
		msgs[i] = Message{Tag: "t", Type: TypeJSON, Data: []byte(`{"n":1}`), Producer: "p", Seq: uint64(i + 1)}
	}
	if _, err := s.AppendBatch(msgs); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Fatalf("a 64-message batch cost %d writes", cw.writes)
	}
	frames, _, err := sos.ReplayFrames(cw, func([]byte) error { return nil })
	if err != nil || frames != 1 {
		t.Fatalf("a 64-message batch is %d frames (%v)", frames, err)
	}
	one := sos.NewMemWAL()
	s1 := mustOpenStream(t, StreamConfig{Name: "darshan"}, one)
	if _, err := s1.Append(msgs[0]); err != nil {
		t.Fatal(err)
	}
	viaBatch := sos.NewMemWAL()
	s2 := mustOpenStream(t, StreamConfig{Name: "darshan"}, viaBatch)
	if _, err := s2.AppendBatch(msgs[:1]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(walBytes(t, one), walBytes(t, viaBatch)) {
		t.Fatal("Append is not the batch of one")
	}
	if _, err := s.AppendBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

type countingWAL struct {
	*sos.MemWAL
	writes int
}

func (c *countingWAL) Write(p []byte) (int, error) {
	c.writes++
	return c.MemWAL.Write(p)
}
