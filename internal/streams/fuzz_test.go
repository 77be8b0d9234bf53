package streams

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// fuzzSeg builds a clean segment: one pre-batch msg entry, one batch
// entry of two, and a cursor record.
func fuzzSeg(floor uint64) *sos.MemWAL {
	wal := sos.NewMemWAL()
	_ = AppendFrame(wal, encodeMsgEntry(&entry{
		seq: 1, at: 1,
		subject: "darshan.nid00040.posix", mtype: TypeJSON,
		payload: []byte(`{"n":1}`), producer: "nid00040", pseq: 1,
	}))
	_ = AppendFrame(wal, fuzzBatchEntry(2))
	_ = AppendFrame(wal, encodeCursorEntry("fz", floor))
	return wal
}

// fuzzBatchEntry is a well-formed two-message batch entry at firstSeq.
func fuzzBatchEntry(firstSeq uint64) []byte {
	return AppendRecords(appendBatchHeader(nil, firstSeq, time.Duration(firstSeq)), []Message{
		{Tag: "darshan.nid00040.posix", Type: TypeJSON, Data: []byte(`{"n":2}`), Producer: "nid00040", Seq: firstSeq},
		{Tag: "darshan.nid00040.note", Type: TypeString, Data: []byte("x")},
	})
}

// fuzzPrefix is what a segment FuzzRetention reopens holds before its
// first op: a batch written by an earlier writer, version 1 or 2.
var fuzzPrefix = []Message{
	{Tag: "darshan.nid00040.posix", Type: TypeJSON, Data: []byte(`{"n":1}`), Producer: "nid00040", Seq: 1},
	{Tag: "darshan.nid00041.posix", Type: TypeJSON, Data: []byte(`{"n":2}`), Producer: "nid00041", Seq: 1},
	{Tag: "darshan.nid00040.posix", Type: TypeString, Data: []byte("x"), Producer: "nid00040", Seq: 2},
}

// FuzzStreamCursor hardens segment recovery and durable cursor resume:
// arbitrary bytes — as a raw segment, as a CRC-framed record body, and as
// direct decoder input — must never panic, and whatever stream state is
// recovered must satisfy the accounting invariants, resume consumers at a
// clamped floor, drain to the head, and accept new appends. The drained
// history is then settled: a late joiner from the start sequence reads it
// back from the segment, and so does one on the segment reopened.
func FuzzStreamCursor(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0x01})
	f.Add(append([]byte{1, 0}, encodeMsgEntry(&entry{
		seq: 3, subject: "darshan.nid00040.posix", mtype: TypeJSON, payload: []byte(`{"n":3}`),
	})...))
	f.Add(append([]byte{9, 9}, encodeCursorEntry("fz", 99)...))
	f.Add(append([]byte{0, 0}, encodeDropEntry(DropByCount, 2)...))
	f.Add(append([]byte{2, 0}, fuzzBatchEntry(4)...))
	f.Add(append([]byte{2, 0}, appendBatchEntryV1(nil, 4, 4, fuzzPrefix)...))
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
		if _, version, _, recs, err := decodeBatchHeader(body); err == nil {
			_, _ = DecodeRecords(version, recs)
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
			_ = AppendFrame(wal, body)
		}
		_ = AppendFrame(wal, encodeCursorEntry("fz", start))
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
		seen := map[uint64]Message{}
		for i := 0; i < 64; i++ {
			ds, ferr := c.Fetch(16)
			if ferr != nil {
				t.Fatalf("fetch: %v", ferr)
			}
			if len(ds) == 0 {
				break
			}
			for _, d := range ds {
				seen[d.Seq] = d.Msg
				if aerr := c.Ack(d.Seq); aerr != nil {
					t.Fatalf("ack %d: %v", d.Seq, aerr)
				}
			}
		}
		if c.AckFloor() != st.LastSeq {
			t.Fatalf("drained floor %d, head %d", c.AckFloor(), st.LastSeq)
		}
		m := Message{Tag: "darshan.nid00040.posix", Type: TypeJSON, Data: []byte("x")}
		seq, err := s.Append(m)
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if seq != st.LastSeq+1 {
			t.Fatalf("recovered append got seq %d, want %d", seq, st.LastSeq+1)
		}
		seen[seq] = m
		for round := 0; round < 2; round++ {
			fuzzLateJoiner(t, s, fmt.Sprintf("late-%d", round), start, seen)
			before := s.Stats()
			if s, err = OpenStream(StreamConfig{Name: "fz"}, wal); err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if after := s.Stats(); after != before {
				t.Fatalf("reopen drifted: before %+v after %+v", before, after)
			}
		}
	})
}

// fuzzLateJoiner joins a consumer at start — or at its durable floor, if
// the segment already knows the name — and drains it: it must get every
// retained sequence from there to the head, in order, each as seen (or
// appended) before, which it records. It returns the sequences delivered.
func fuzzLateJoiner(t *testing.T, s *DurableStream, name string, start uint64, seen map[uint64]Message) []uint64 {
	t.Helper()
	c, err := s.Consumer(ConsumerConfig{Name: name, StartSeq: start})
	if err != nil {
		t.Fatalf("late joiner: %v", err)
	}
	st := s.Stats()
	next := max(c.AckFloor()+1, st.FirstSeq)
	var got []uint64
	for {
		ds, err := c.Fetch(16)
		if err != nil {
			t.Fatalf("late joiner at %d: %v", next, err)
		}
		if len(ds) == 0 {
			break
		}
		for _, d := range ds {
			if m, ok := seen[d.Seq]; d.Seq != next || (ok && !sameEnvelope(d.Msg, m)) {
				t.Fatalf("late joiner got %d %+v, want %d %+v", d.Seq, d.Msg, next, m)
			}
			seen[d.Seq] = d.Msg
			got = append(got, d.Seq)
			next++
		}
		if err := c.AckBatch(ds); err != nil {
			t.Fatalf("late joiner ack: %v", err)
		}
	}
	if next != st.LastSeq+1 {
		t.Fatalf("late joiner stopped at %d, head %d", next, st.LastSeq)
	}
	return got
}

// noCompactWAL is a MemWAL that refuses every Replace: a stream over it
// never compacts.
type noCompactWAL struct{ *sos.MemWAL }

func (noCompactWAL) Replace(func(io.Writer) error) error { return errors.New("no compaction here") }

// FuzzRetention drives a stream through an arbitrary op sequence —
// appends of varying size, clock jumps, crash/reopen, every consumer
// catching up, a late joiner at a sequence drawn from the input, a
// compaction with a consumer left holding redeliveries — under a
// retention policy drawn from the input, checking the drop-accounting
// invariants after every step. What the consumers settle leaves memory,
// so the late joiners read it back from the segment, also from a batch
// retention has trimmed into and after a reopen has settled it again;
// every delivery must be what was appended. The third byte's top bits
// start the stream on a segment an earlier writer left: 0x80 a version-1
// batch, 0x40 a version-2 one.
//
// The stream compacts whenever its segment has any dead prefix at all
// (the floor is 0), and a twin driven by the same ops never compacts:
// the two must agree on Stats(), on every consumer's stats and floor, on
// every delivery and redelivery, and on the history a reopen reads back.
func FuzzRetention(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 200, 10, 0, 1, 2, 3, 8, 9, 250, 4, 5})
	f.Add(bytes.Repeat([]byte{0, 64}, 20))          // count-bound churn
	f.Add(bytes.Repeat([]byte{1, 255, 2, 200}, 10)) // byte-bound churn + clock jumps
	f.Add([]byte{8, 8, 0, 1, 3, 3, 0, 2, 2, 128, 3, 0, 255})
	f.Add([]byte{2, 0, 0x80, 0, 9, 3, 0, 4, 5, 3, 0})
	f.Add([]byte{2, 0, 0x40, 0, 9, 3, 0, 4, 5, 3, 0})
	f.Add([]byte{3, 0, 0, 4, 7, 7, 3, 2, 40, 7, 0, 3, 0, 4, 2, 7, 1, 5, 0}) // compact, redeliver, reopen
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 3 {
			return
		}
		defer SetCompactFloor(0)()
		pol := RetentionPolicy{
			MaxMsgs:  int(ops[0] % 9),                                     // 0..8 (0 = unbounded)
			MaxBytes: int64(ops[1]%5) * 16,                                // 0..64
			MaxAge:   time.Duration(ops[2]&0x3F%5) * 8 * time.Millisecond, // 0..32ms
		}
		wals := [2]sos.WALStore{sos.NewMemWAL(), noCompactWAL{sos.NewMemWAL()}}
		sent := map[uint64]Message{}
		for _, wal := range wals {
			switch {
			case ops[2]&0x80 != 0:
				_ = AppendFrame(wal, appendBatchEntryV1(nil, 1, 0, fuzzPrefix))
			case ops[2]&0x40 != 0:
				_ = AppendFrame(wal, AppendRecords(appendBatchHeader(nil, 1, 0), fuzzPrefix))
			}
		}
		if ops[2]&0xC0 != 0 {
			for i, m := range fuzzPrefix {
				sent[uint64(i+1)] = m
			}
		}
		late := 0
		ops = ops[3:]
		if len(ops) > 512 {
			ops = ops[:512]
		}
		var now time.Duration
		cfg := StreamConfig{Name: "fz", Retention: pol, Clock: func() time.Duration { return now }}
		var ss [2]*DurableStream
		open := func() {
			for i := range ss {
				var err error
				if ss[i], err = OpenStream(cfg, wals[i]); err != nil {
					t.Fatalf("open %d: %v", i, err)
				}
			}
		}
		open()
		// both runs f on each stream and requires the same result of both.
		both := func(what string, f func(s *DurableStream) any) {
			a, b := f(ss[0]), f(ss[1])
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: compacting stream %+v, twin %+v", what, a, b)
			}
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 8 {
			case 0, 1:
				m := Message{
					Tag: "darshan.nid00040.posix", Type: TypeJSON,
					Data: bytes.Repeat([]byte("x"), int(arg%33)),
				}
				both("append", func(s *DurableStream) any {
					seq, err := s.Append(m)
					if err != nil {
						t.Fatalf("append: %v", err)
					}
					sent[seq] = m
					return seq
				})
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
				both("append batch", func(s *DurableStream) any {
					before := s.Stats().LastSeq
					if first, err := s.AppendBatch(batch); err != nil || first != before+1 {
						t.Fatalf("append batch: seq %d after %d, %v", first, before, err)
					}
					for j, m := range batch {
						sent[before+1+uint64(j)] = m
					}
					return before
				})
			case 2:
				now += time.Duration(arg) * time.Millisecond
			case 3:
				// Crash: reopen from the same segment. Accounting must
				// survive, and age-based retention re-applies at open.
				before := ss[0].Stats()
				open()
				after := ss[0].Stats()
				if after.LastSeq != before.LastSeq || after.Dropped < before.Dropped {
					t.Fatalf("reopen drifted: before %+v after %+v", before, after)
				}
				both("history read back after a reopen", func(s *DurableStream) any {
					img := imageOf(t, cfg, segmentBytes(t, s.store))
					img.msgs = nil // compared by fuzzLateJoiner against what was sent
					return img
				})
			case 5:
				// Every consumer catches up, settling what it has read.
				names := []string{"live"}
				for _, cs := range ss[0].ConsumerStats() {
					names = append(names, cs.Name)
				}
				for _, name := range names {
					both("catch up "+name, func(s *DurableStream) any { return fuzzLateJoiner(t, s, name, 0, sent) })
				}
			case 6:
				// A late joiner reads history from a drawn sequence; past
				// eight, a known one reattaches at its floor instead.
				late++
				name := fmt.Sprintf("late-%d", min(late, 8+int(arg%8)))
				start := uint64(arg) % (ss[0].Stats().LastSeq + 2)
				both("late joiner", func(s *DurableStream) any { return fuzzLateJoiner(t, s, name, start, sent) })
			case 7:
				// Compact; then a consumer with a 1ms ack deadline takes a
				// round and acks only its first delivery, so what it holds
				// comes back as redeliveries once the clock passes due.
				if err := ss[0].compact(true); err != nil {
					t.Fatalf("compact: %v", err)
				}
				both("partial round", func(s *DurableStream) any {
					c, err := s.Consumer(ConsumerConfig{Name: "part", AckWait: time.Millisecond})
					if err != nil {
						t.Fatal(err)
					}
					ds, err := c.Fetch(1 + int(arg%4))
					if err != nil {
						t.Fatalf("partial round: %v", err)
					}
					if len(ds) > 0 {
						_ = c.Ack(ds[0].Seq)
					}
					var got []Delivery
					for _, d := range ds {
						if m, ok := sent[d.Seq]; ok && !sameEnvelope(d.Msg, m) {
							t.Fatalf("partial round got %d %+v, want %+v", d.Seq, d.Msg, m)
						}
						got = append(got, Delivery{Seq: d.Seq, Deliveries: d.Deliveries})
					}
					return got
				})
			}
			both("stats", func(s *DurableStream) any { return windowStats(fuzzCheckStream(t, s)) })
			both("consumers", func(s *DurableStream) any { return s.ConsumerStats() })
			st := ss[0].Stats()
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
