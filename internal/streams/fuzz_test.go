package streams

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// fuzzSeg builds a clean segment: one pre-batch msg entry, one batch
// entry of two, and a cursor record.
func fuzzSeg(floor uint64) *sos.MemWAL {
	wal := sos.NewMemWAL()
	_ = sos.AppendFrame(wal, encodeMsgEntry(&entry{
		seq: 1, at: 1,
		subject: "darshan.nid00040.posix", mtype: TypeJSON,
		payload: []byte(`{"n":1}`), producer: "nid00040", pseq: 1,
	}))
	_ = sos.AppendFrame(wal, fuzzBatchEntry(2))
	_ = sos.AppendFrame(wal, encodeCursorEntry("fz", floor))
	return wal
}

// fuzzBatchEntry is a well-formed two-message batch entry at firstSeq.
func fuzzBatchEntry(firstSeq uint64) []byte {
	return AppendRecords(appendBatchHeader(nil, firstSeq, time.Duration(firstSeq)), []Message{
		{Tag: "darshan.nid00040.posix", Type: TypeJSON, Data: []byte(`{"n":2}`), Producer: "nid00040", Seq: firstSeq},
		{Tag: "darshan.nid00040.note", Type: TypeString, Data: []byte("x")},
	})
}

// FuzzStreamCursor hardens segment recovery and durable cursor resume:
// arbitrary bytes — as a raw segment, as a CRC-framed record body, and as
// direct decoder input — must never panic, and whatever stream state is
// recovered must satisfy the accounting invariants, resume consumers at a
// clamped floor, drain to the head, and accept new appends.
func FuzzStreamCursor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0x01})
	f.Add(append([]byte{1, 0}, encodeMsgEntry(&entry{
		seq: 3, subject: "darshan.nid00040.posix", mtype: TypeJSON, payload: []byte(`{"n":3}`),
	})...))
	f.Add(append([]byte{9, 9}, encodeCursorEntry("fz", 99)...))
	f.Add(append([]byte{0, 0}, encodeDropEntry(DropByCount, 2)...))
	f.Add(append([]byte{2, 0}, fuzzBatchEntry(4)...))
	f.Add(append([]byte{0, 0}, binary.AppendUvarint(appendBatchHeader(nil, 4, 0), 1<<40)...)) // hostile count
	f.Add(append([]byte{2, 0}, 0x01, 0xFF, 0xFF, 0xFF, 0xFF))
	f.Fuzz(func(t *testing.T, data []byte) {
		var start uint64
		body := data
		if len(data) >= 2 {
			start = uint64(data[0]) | uint64(data[1])<<8
			body = data[2:]
		}
		if len(body) > 1<<16 {
			body = body[:1<<16]
		}

		// The decoders must parse-or-error on anything.
		_, _ = decodeMsgEntry(body)
		if _, _, recs, err := decodeBatchHeader(body); err == nil {
			_, _ = DecodeRecords(recs)
		}
		_, _, _ = decodeCursorEntry(body)
		_, _, _ = decodeDropEntry(body)

		// Raw segment: recovery treats undecodable content as a torn tail.
		raw := sos.NewMemWAL()
		_, _ = raw.Write(body)
		if s, err := OpenStream(StreamConfig{Name: "fz"}, raw); err == nil {
			fuzzCheckStream(t, s)
		}

		// Framed: a clean prefix, then the fuzz body as a whole record —
		// this is what reaches the record decoders through recovery.
		wal := fuzzSeg(1)
		if len(body) > 0 {
			_ = sos.AppendFrame(wal, body)
		}
		_ = sos.AppendFrame(wal, encodeCursorEntry("fz", start))
		s, err := OpenStream(StreamConfig{Name: "fz"}, wal)
		if err != nil {
			return
		}
		st := fuzzCheckStream(t, s)
		c, err := s.Consumer(ConsumerConfig{Name: "fz", StartSeq: start})
		if err != nil {
			t.Fatalf("consumer: %v", err)
		}
		if c.AckFloor() > st.LastSeq {
			t.Fatalf("resumed floor %d past head %d", c.AckFloor(), st.LastSeq)
		}
		for i := 0; i < 64; i++ {
			ds, ferr := c.Fetch(16)
			if ferr != nil {
				t.Fatalf("fetch: %v", ferr)
			}
			if len(ds) == 0 {
				break
			}
			for _, d := range ds {
				if aerr := c.Ack(d.Seq); aerr != nil {
					t.Fatalf("ack %d: %v", d.Seq, aerr)
				}
			}
		}
		if c.AckFloor() != st.LastSeq {
			t.Fatalf("drained floor %d, head %d", c.AckFloor(), st.LastSeq)
		}
		seq, err := s.Append(Message{Tag: "darshan.nid00040.posix", Type: TypeJSON, Data: []byte("x")})
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if seq != st.LastSeq+1 {
			t.Fatalf("recovered append got seq %d, want %d", seq, st.LastSeq+1)
		}
	})
}

// FuzzRetention drives a stream through an arbitrary op sequence —
// appends of varying size, clock jumps, crash/reopen — under a retention
// policy drawn from the input, checking the drop-accounting invariants
// after every step.
func FuzzRetention(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 200, 10, 0, 1, 2, 3, 8, 9, 250, 4, 5})
	f.Add(bytes.Repeat([]byte{0, 64}, 20))          // count-bound churn
	f.Add(bytes.Repeat([]byte{1, 255, 2, 200}, 10)) // byte-bound churn + clock jumps
	f.Add([]byte{8, 8, 0, 1, 3, 3, 0, 2, 2, 128, 3, 0, 255})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		pol := RetentionPolicy{
			MaxMsgs:  int(ops[0] % 9),                                // 0..8 (0 = unbounded)
			MaxBytes: int64(ops[1]%5) * 16,                           // 0..64
			MaxAge:   time.Duration(ops[2]%5) * 8 * time.Millisecond, // 0..32ms
		}
		ops = ops[3:]
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var now time.Duration
		wal := sos.NewMemWAL()
		cfg := StreamConfig{Name: "fz", Retention: pol, Clock: func() time.Duration { return now }}
		s, err := OpenStream(cfg, wal)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0, 1:
				if _, err := s.Append(Message{
					Tag: "darshan.nid00040.posix", Type: TypeJSON,
					Data: bytes.Repeat([]byte("x"), int(arg%33)),
				}); err != nil {
					t.Fatalf("append: %v", err)
				}
			case 4:
				// A batch entry of 1..8 messages: retention may trim into
				// the middle of it, now or after a reopen.
				batch := make([]Message, 1+int(arg%8))
				for j := range batch {
					batch[j] = Message{
						Tag: "darshan.nid00040.posix", Type: TypeJSON,
						Data: bytes.Repeat([]byte("y"), int(arg%33)),
					}
				}
				before := s.Stats().LastSeq
				if first, err := s.AppendBatch(batch); err != nil || first != before+1 {
					t.Fatalf("append batch: seq %d after %d, %v", first, before, err)
				}
			case 2:
				now += time.Duration(arg) * time.Millisecond
			case 3:
				// Crash: reopen from the same segment. Accounting must
				// survive, and age-based retention re-applies at open.
				before := s.Stats()
				s, err = OpenStream(cfg, wal)
				if err != nil {
					t.Fatalf("reopen: %v", err)
				}
				after := s.Stats()
				if after.LastSeq != before.LastSeq || after.Dropped < before.Dropped {
					t.Fatalf("reopen drifted: before %+v after %+v", before, after)
				}
			}
			fuzzCheckStream(t, s)
			st := s.Stats()
			if pol.MaxMsgs > 0 && st.Msgs > pol.MaxMsgs {
				t.Fatalf("retention bound broken: %d msgs > MaxMsgs %d", st.Msgs, pol.MaxMsgs)
			}
			if pol.MaxBytes > 0 && st.Bytes > pol.MaxBytes {
				t.Fatalf("retention bound broken: %d bytes > MaxBytes %d", st.Bytes, pol.MaxBytes)
			}
		}
	})
}

// fuzzCheckStream asserts the drop-accounting invariants that must hold
// on any stream, however it was recovered.
func fuzzCheckStream(t *testing.T, s *DurableStream) StreamStats {
	t.Helper()
	st := s.Stats()
	if st.Appended != uint64(st.Msgs)+st.Dropped {
		t.Fatalf("conservation broken: appended %d != retained %d + dropped %d", st.Appended, st.Msgs, st.Dropped)
	}
	if st.Appended > 0 && st.Dropped != st.FirstSeq-1 {
		t.Fatalf("drop floor broken: dropped %d, firstSeq %d", st.Dropped, st.FirstSeq)
	}
	var sum uint64
	for _, n := range st.DroppedFor {
		sum += n
	}
	if sum != st.Dropped {
		t.Fatalf("per-reason drops sum to %d, total says %d", sum, st.Dropped)
	}
	return st
}
