package streams

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// segmentBytes returns the bytes a store holds.
func segmentBytes(t *testing.T, st sos.WALStore) []byte {
	t.Helper()
	r, err := st.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// memImage is a fresh MemWAL holding b.
func memImage(b []byte) *sos.MemWAL {
	m := sos.NewMemWAL()
	_, _ = m.Write(b)
	return m
}

// streamImage is what a reopen of a segment reads: the window's stats,
// every consumer's floor, and every retained message as a late joiner
// from the start reads it back, with its sequence.
type streamImage struct {
	stats  StreamStats
	floors map[string]uint64
	seqs   []uint64
	msgs   []Message
}

// imageOf opens a copy of seg and reads its image; the copy is discarded,
// so seg is left as it was.
func imageOf(t *testing.T, cfg StreamConfig, seg []byte) streamImage {
	t.Helper()
	s, err := OpenStream(cfg, memImage(seg))
	if err != nil {
		t.Fatalf("open image: %v", err)
	}
	im := streamImage{stats: windowStats(s.Stats()), floors: map[string]uint64{}}
	for _, cs := range s.ConsumerStats() {
		im.floors[cs.Name] = cs.AckFloor
	}
	c, err := s.Consumer(ConsumerConfig{Name: "~image", StartSeq: 1, MaxInflight: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for {
		ds, err := c.Fetch(64)
		if err != nil {
			t.Fatalf("image read-back: %v", err)
		}
		if len(ds) == 0 {
			return im
		}
		for _, d := range ds {
			im.seqs, im.msgs = append(im.seqs, d.Seq), append(im.msgs, d.Msg)
		}
		if err := c.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
	}
}

func sameImage(t *testing.T, what string, got, want streamImage) {
	t.Helper()
	if got.stats != want.stats || !reflect.DeepEqual(got.floors, want.floors) || !reflect.DeepEqual(got.seqs, want.seqs) {
		t.Fatalf("%s: stats %+v floors %v seqs %v, want %+v %v %v", what, got.stats, got.floors, got.seqs, want.stats, want.floors, want.seqs)
	}
	for i := range got.msgs {
		if !sameEnvelope(got.msgs[i], want.msgs[i]) || !bytes.Equal(got.msgs[i].Data, want.msgs[i].Data) {
			t.Fatalf("%s: message %d reads %+v, want %+v", what, got.seqs[i], got.msgs[i], want.msgs[i])
		}
	}
}

func compactMsg(i int) Message {
	return Message{Tag: fmt.Sprintf("darshan.nid%05d.posix", 40+i%3), Type: TypeJSON, Data: []byte(fmt.Sprintf(`{"n":%d,"pad":"%0*d"}`, i, i%40, 0)), Producer: fmt.Sprintf("nid%05d", 40+i%3), Seq: uint64(i)}
}

// busyStream appends n messages in batches of 1..7 under a count bound,
// with a live consumer that acks most of what it fetches and leaves the
// rest inflight, and a consumer that settled part of the history and left.
func busyStream(t *testing.T, cfg StreamConfig, st sos.WALStore, n int) (*DurableStream, *Consumer) {
	t.Helper()
	s, err := OpenStream(cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	gone, _ := s.Consumer(ConsumerConfig{Name: "gone"})
	live, _ := s.Consumer(ConsumerConfig{Name: "live", MaxInflight: 1 << 20})
	for i := 1; i <= n; {
		batch := make([]Message, 0, 7)
		for k := 1 + i%7; k > 0 && i <= n; k-- {
			batch = append(batch, compactMsg(i))
			i++
		}
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		ds, err := live.Fetch(1 + i%11)
		if err != nil {
			t.Fatal(err)
		}
		for j, d := range ds {
			if j%5 != 4 {
				if err := live.Ack(d.Seq); err != nil {
					t.Fatal(err)
				}
			}
		}
		if i > n/3 && gone != nil {
			ds, _ := gone.Fetch(40)
			_ = gone.AckBatch(ds)
			gone.Close()
			gone = nil
		}
	}
	return s, live
}

// TestCompactionKeepsTheStream: a compaction leaves Stats(), every
// consumer's floor and stats, and every settled message read back exactly
// as they were — live, and after a reopen of the rewritten segment — and
// the segment shrinks to the base record and the window's batches.
func TestCompactionKeepsTheStream(t *testing.T) {
	for _, ret := range []RetentionPolicy{{MaxMsgs: 300}, {MaxBytes: 9000}, {MaxMsgs: 1}} {
		t.Run(fmt.Sprintf("%+v", ret), func(t *testing.T) {
			cfg := StreamConfig{Name: "compact", Retention: ret}
			wal := sos.NewMemWAL()
			s, _ := busyStream(t, cfg, wal, 2000)
			before, cons := s.Stats(), s.ConsumerStats()
			image := imageOf(t, cfg, segmentBytes(t, wal))
			if err := s.compact(true); err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			if windowStats(after) != windowStats(before) || !reflect.DeepEqual(s.ConsumerStats(), cons) {
				t.Fatalf("compaction moved the stream: %+v %+v, was %+v %+v", after, s.ConsumerStats(), before, cons)
			}
			if after.SegmentBytes >= before.SegmentBytes/2 || after.Rewritten != after.SegmentBytes || after.SegmentBytes != int64(wal.Len()) {
				t.Fatalf("segment %d -> %d bytes, %d rewritten, store holds %d", before.SegmentBytes, after.SegmentBytes, after.Rewritten, wal.Len())
			}
			sameImage(t, "reopened", imageOf(t, cfg, segmentBytes(t, wal)), image)

			// The live stream reads its settled history back from the new
			// offsets, appends behind the copy, and compacts again.
			late, _ := s.Consumer(ConsumerConfig{Name: "late", StartSeq: 1, MaxInflight: 1 << 20})
			ds, err := late.Fetch(1 << 20)
			if err != nil || len(ds) != len(image.seqs) {
				t.Fatalf("late joiner after compaction: %d deliveries, %v; want %d", len(ds), err, len(image.seqs))
			}
			for i, d := range ds {
				if d.Seq != image.seqs[i] || !bytes.Equal(d.Msg.Data, image.msgs[i].Data) {
					t.Fatalf("late joiner read %d %q, want %d %q", d.Seq, d.Msg.Data, image.seqs[i], image.msgs[i].Data)
				}
			}
			if _, err := s.AppendBatch([]Message{compactMsg(2001), compactMsg(2002)}); err != nil {
				t.Fatal(err)
			}
			before, image = s.Stats(), imageOf(t, cfg, segmentBytes(t, wal))
			if err := s.compact(true); err != nil {
				t.Fatal(err)
			}
			if windowStats(s.Stats()) != windowStats(before) {
				t.Fatalf("second compaction moved the stream: %+v, was %+v", s.Stats(), before)
			}
			sameImage(t, "compacted twice", imageOf(t, cfg, segmentBytes(t, wal)), image)
		})
	}
}

// TestCompactionBoundsTheSegment: under the rule a firehose through a
// count bound keeps its segment within twice the window's bytes plus the
// floor and a batch, where without it the segment grows with every
// message ever appended; and every compaction copies no more than was
// appended since the last.
func TestCompactionBoundsTheSegment(t *testing.T) {
	defer SetCompactFloor(16 << 10)()
	const window, n = 500, 20000
	wal := &appendCountWAL{MemWAL: sos.NewMemWAL()}
	s, err := OpenStream(StreamConfig{Name: "bound", Retention: RetentionPolicy{MaxMsgs: window}}, wal)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Consumer(ConsumerConfig{Name: "c", MaxInflight: 1 << 20})
	var perMsg int64
	var peak int64
	for i := 1; i <= n; i += 8 {
		batch := make([]Message, 8)
		for k := range batch {
			batch[k] = compactMsg(i + k)
		}
		if _, err := s.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		ds, _ := c.Fetch(8)
		_ = c.AckBatch(ds)
		st := s.Stats()
		if i == 1+8*(window/8) {
			perMsg = st.SegmentBytes / int64(st.LastSeq)
		}
		if perMsg > 0 {
			if bound := 2*window*perMsg + compactFloor + 8*perMsg; st.SegmentBytes > bound {
				t.Fatalf("at %d appended the segment holds %d bytes, past %d", st.LastSeq, st.SegmentBytes, bound)
			}
		}
		peak = max(peak, st.SegmentBytes)
	}
	st := s.Stats()
	if st.Rewritten == 0 || st.Rewritten > wal.appended {
		t.Fatalf("rewrote %d bytes for %d appended: want some, and at most one per byte appended", st.Rewritten, wal.appended)
	}
	t.Logf("%d appended (%d bytes): segment %d bytes (peak %d, %d B/msg), %d rewritten", st.LastSeq, wal.appended, st.SegmentBytes, peak, perMsg, st.Rewritten)
}

// appendCountWAL counts the bytes appended to it.
type appendCountWAL struct {
	*sos.MemWAL
	appended int64
}

func (w *appendCountWAL) Write(p []byte) (int, error) {
	w.appended += int64(len(p))
	return w.MemWAL.Write(p)
}

// TestCompactionRacesAppendsAndAcks: compactions built while a publisher
// appends and a consumer fetches, acks and reads history back lose
// nothing — the consumer gets every sequence once, in order, and the
// segment reopens to the live stream (go test -race).
func TestCompactionRacesAppendsAndAcks(t *testing.T) {
	defer SetCompactFloor(2 << 10)()
	const n = 6000
	cfg := StreamConfig{Name: "race", Retention: RetentionPolicy{MaxMsgs: 400}}
	wal := sos.NewMemWAL()
	s, err := OpenStream(cfg, wal)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := s.Consumer(ConsumerConfig{Name: "c", MaxInflight: 64})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i += 3 {
			if _, err := s.AppendBatch([]Message{compactMsg(i), compactMsg(i + 1), compactMsg(i + 2)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		next := uint64(1)
		for next <= n {
			ds, err := c.Fetch(32)
			if err != nil {
				t.Error(err)
				return
			}
			for _, d := range ds {
				if d.Seq < next {
					t.Errorf("delivered %d after %d", d.Seq, next)
					return
				}
				next = d.Seq + 1
			}
			_ = c.AckBatch(ds)
			if len(ds) == 0 {
				_ = c.Wait(1, 1e6)
			}
		}
	}()
	wg.Wait()
	st := s.Stats()
	if st.Rewritten == 0 {
		t.Fatal("no compaction ran")
	}
	s.Close()
	got := imageOf(t, cfg, segmentBytes(t, wal))
	if got.stats != windowStats(st) || got.floors["c"] != c.AckFloor() {
		t.Fatalf("reopened %+v floors %v, live %+v floor %d", got.stats, got.floors, st, c.AckFloor())
	}
}

// TestCompactionCrashStates: a kill at any step of a compaction reopens to
// the stream as it was. Before the rename the segment holds the old bytes
// and a temporary of the new ones lies beside it, whole or cut short
// (written, or written and synced); after it the segment holds the new
// bytes (renamed, or renamed and the directory synced). Either way the
// open removes the temporary and reads the same stream.
func TestCompactionCrashStates(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ldmsd.stream")
	fw, err := sos.OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{Name: "crash", Retention: RetentionPolicy{MaxMsgs: 200}}
	s, _ := busyStream(t, cfg, fw, 1500)
	old := segmentBytes(t, fw)
	want := imageOf(t, cfg, old)
	if err := s.compact(true); err != nil {
		t.Fatal(err)
	}
	s.Close()
	fresh := segmentBytes(t, fw)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) > 0 || len(fresh) >= len(old) {
		t.Fatalf("after a clean compaction: %v beside the segment, %d -> %d bytes", left, len(old), len(fresh))
	}
	for _, tc := range []struct {
		step     string
		seg, tmp []byte
	}{
		{"temporary half written", old, fresh[:len(fresh)/2]},
		{"temporary written and synced", old, fresh},
		{"renamed", fresh, nil},
		{"directory synced", fresh, nil},
	} {
		if err := os.WriteFile(path, tc.seg, 0o644); err != nil {
			t.Fatal(err)
		}
		if tc.tmp != nil {
			if err := os.WriteFile(path+".tmp", tc.tmp, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		fw, err := sos.OpenFileWAL(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := OpenStream(cfg, fw)
		if err != nil {
			t.Fatalf("%s: reopen: %v", tc.step, err)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("%s: the temporary survived the open", tc.step)
		}
		sameImage(t, tc.step, imageOf(t, cfg, segmentBytes(t, fw)), want)
		if windowStats(s.Stats()) != want.stats {
			t.Fatalf("%s: reopened %+v, want %+v", tc.step, s.Stats(), want.stats)
		}
		s.Close()
		fw.Close()
	}
}

// frozenMsg is message i of the frozen version-2 segments, as the writer
// that left them appended it.
func frozenMsg(i int) Message {
	if i%3 == 2 {
		return Message{Tag: "darshan.nid00046.note", Type: TypeString, Data: []byte(fmt.Sprintf("note-%d", i))}
	}
	return Message{Tag: fmt.Sprintf("darshan.nid%05d.raw", 40+i%2), Type: TypeJSON, Data: []byte(fmt.Sprintf(`{"n":%d}`, i)), Producer: fmt.Sprintf("nid%05d", 40+i%2), Seq: uint64(i)}
}

// TestV2SegmentReadCompat: the segments the version-2 writer left before
// compaction existed — batches, cursor records, drop markers, a trim in
// the middle of a batch (segment-v2.bin, a detached consumer's floor
// too), and a window age trimmed empty (segment-v2-empty.bin) — open to
// the Stats and floors that writer reported, compact, and reopen equal,
// LastSeq kept when the window is empty: dsosd refuses a shard log tagged
// past the stream's last sequence, so an empty window must not forget it.
func TestV2SegmentReadCompat(t *testing.T) {
	for _, tc := range []struct {
		file   string
		cfg    StreamConfig
		stats  StreamStats
		floors map[string]uint64
	}{
		{"segment-v2.bin", StreamConfig{Name: "frozen", Retention: RetentionPolicy{MaxMsgs: 5}},
			StreamStats{Name: "frozen", FirstSeq: 5, LastSeq: 9, Msgs: 5, Bytes: 33, Appended: 9, Dropped: 4, DroppedFor: [3]uint64{4, 0, 0}},
			map[string]uint64{"audit": 4, "ingest": 5}},
		{"segment-v2-empty.bin", StreamConfig{Name: "frozen-empty", Retention: RetentionPolicy{MaxAge: 10e6}, Clock: func() time.Duration { return 100e6 }},
			StreamStats{Name: "frozen-empty", FirstSeq: 6, LastSeq: 5, Appended: 5, Dropped: 5, DroppedFor: [3]uint64{0, 0, 5}},
			map[string]uint64{"ingest": 4}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			frozen, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			want := imageOf(t, tc.cfg, frozen)
			if want.stats != tc.stats || !reflect.DeepEqual(want.floors, tc.floors) {
				t.Fatalf("opened to %+v floors %v, the writer reported %+v %v", want.stats, want.floors, tc.stats, tc.floors)
			}
			for i, seq := range want.seqs {
				if m := frozenMsg(int(seq)); !sameEnvelope(want.msgs[i], m) || !bytes.Equal(want.msgs[i].Data, m.Data) {
					t.Fatalf("message %d reads %+v, want %+v", seq, want.msgs[i], m)
				}
			}
			wal := memImage(frozen)
			s, err := OpenStream(tc.cfg, wal)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.compact(true); err != nil {
				t.Fatal(err)
			}
			seg := segmentBytes(t, wal)
			if seg[sos.FrameHeader] != segKindBase || len(seg) >= len(frozen) {
				t.Fatalf("compacted to %d bytes from %d, first record kind %#x", len(seg), len(frozen), seg[sos.FrameHeader])
			}
			sameImage(t, "compacted", imageOf(t, tc.cfg, seg), want)
			if seq, err := s.Append(frozenMsg(10)); err != nil || seq != tc.stats.LastSeq+1 {
				t.Fatalf("append after compaction got %d, %v; want %d", seq, err, tc.stats.LastSeq+1)
			}
		})
	}
}

// refusingWAL is a MemWAL whose Replace always fails, as on a full disk.
type refusingWAL struct {
	*sos.MemWAL
	tries int
}

func (w *refusingWAL) Replace(func(io.Writer) error) error {
	w.tries++
	return errors.New("no space left on device")
}

// TestFailedCompactionBacksOff: a compaction that fails leaves the
// segment as it was, and the next is tried only once the segment has
// doubled, not on every append.
func TestFailedCompactionBacksOff(t *testing.T) {
	defer SetCompactFloor(1 << 10)()
	wal := &refusingWAL{MemWAL: sos.NewMemWAL()}
	s, err := OpenStream(StreamConfig{Name: "full", Retention: RetentionPolicy{MaxMsgs: 10}}, wal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4000; i++ {
		if _, err := s.Append(compactMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if wal.tries == 0 || wal.tries > 10 || st.Rewritten != 0 || st.SegmentBytes != int64(wal.Len()) {
		t.Fatalf("%d compactions tried over %d appends, %d rewritten, segment %d of %d bytes", wal.tries, st.LastSeq, st.Rewritten, st.SegmentBytes, wal.Len())
	}
	if got := imageOf(t, StreamConfig{Name: "full", Retention: RetentionPolicy{MaxMsgs: 10}}, segmentBytes(t, wal)); got.stats != windowStats(st) {
		t.Fatalf("reopened %+v, live %+v", got.stats, st)
	}
}
