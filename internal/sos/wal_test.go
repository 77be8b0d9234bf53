package sos

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// replayWAL replays the whole log: ReplayWALTo with no floor.
func replayWAL(st WALStore, apply func(schema string, obj Object, origin uint64) error) (records int, consumed int64, err error) {
	r, err := ReplayWALTo(st, math.MaxUint64, apply)
	return r.Rows, r.Consumed, err
}

func walObj(i int) Object {
	return NewObject(int64(i), uint64(i*2), float64(i)/3, "rank-"+string(rune('a'+i%26)))
}

func TestWALRoundTrip(t *testing.T) {
	mem := NewMemWAL()
	w := NewWAL(mem)
	const n = 50
	for i := 0; i < n; i++ {
		if err := w.Append("darshan", walObj(i), uint64(i+1)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if w.Appended() != n {
		t.Fatalf("Appended() = %d, want %d", w.Appended(), n)
	}
	var got []Object
	var origins []uint64
	recs, consumed, err := replayWAL(mem, func(schema string, obj Object, origin uint64) error {
		if schema != "darshan" {
			t.Fatalf("schema = %q", schema)
		}
		got = append(got, obj)
		origins = append(origins, origin)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if recs != n {
		t.Fatalf("replayed %d records, want %d", recs, n)
	}
	if consumed != int64(mem.Len()) {
		t.Fatalf("consumed %d bytes of %d", consumed, mem.Len())
	}
	for i, obj := range got {
		want := walObj(i)
		if !reflect.DeepEqual(obj.Values(), want.Values()) {
			t.Fatalf("record %d: %v, want %v", i, obj, want)
		}
		if origins[i] != uint64(i+1) {
			t.Fatalf("record %d origin = %d, want %d", i, origins[i], i+1)
		}
	}
}

// A crash mid-write leaves a torn record at the tail; replay must recover
// every complete record and report where the clean prefix ends.
func TestWALTornTail(t *testing.T) {
	mem := NewMemWAL()
	w := NewWAL(mem)
	for i := 0; i < 10; i++ {
		if err := w.Append("s", walObj(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	clean := mem.Len()
	if err := w.Append("s", walObj(10), 0); err != nil {
		t.Fatal(err)
	}
	_ = mem.Reset(int64(clean + 5)) // tear the 11th record mid-body

	recs, consumed, err := replayWAL(mem, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if recs != 10 {
		t.Fatalf("replayed %d records, want 10", recs)
	}
	if consumed != int64(clean) {
		t.Fatalf("consumed = %d, want clean prefix %d", consumed, clean)
	}
}

// Corrupting a byte inside a record body must stop replay at that record
// (the CRC catches it) without propagating garbage.
func TestWALCorruptBody(t *testing.T) {
	mem := NewMemWAL()
	w := NewWAL(mem)
	for i := 0; i < 4; i++ {
		if err := w.Append("s", walObj(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	twoRecs := 0
	{
		// Find the byte offset where record 3 starts by replaying a copy.
		probe := NewMemWAL()
		pw := NewWAL(probe)
		for i := 0; i < 2; i++ {
			if err := pw.Append("s", walObj(i), 0); err != nil {
				t.Fatal(err)
			}
		}
		twoRecs = probe.Len()
	}
	mem.buf[twoRecs+12] ^= 0xff // flip a byte inside the third record's body

	recs, _, err := replayWAL(mem, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if recs != 2 {
		t.Fatalf("replayed %d records past corruption, want 2", recs)
	}
}

func TestFileWAL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dsos.wal")
	fw, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWAL(fw)
	for i := 0; i < 7; i++ {
		if err := w.Append("darshan", walObj(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Sync(); err != nil {
		t.Fatal(err)
	}

	// Simulate a torn tail: append garbage bytes directly to the file.
	if _, err := fw.Write([]byte{0x99, 0x01}); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": reopen, replay, truncate the torn tail, append more.
	fw2, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fw2.Close()
	r, err := ReplayWALTo(fw2, math.MaxUint64, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows != 7 {
		t.Fatalf("recovered %d records, want 7", r.Rows)
	}
	if err := fw2.Reset(r.Consumed); err != nil {
		t.Fatal(err)
	}
	w2 := ResumeWAL(fw2, r)
	if err := w2.Append("darshan", walObj(7), 7); err != nil {
		t.Fatal(err)
	}
	recs, _, err := replayWAL(fw2, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if recs != 8 {
		t.Fatalf("after reset+append: %d records, want 8", recs)
	}

	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("wal file empty")
	}
}

// Origins written through InsertOrigin survive a snapshot/restore cycle,
// and an origin-free container's snapshot carries no origin list.
func TestSnapshotOrigins(t *testing.T) {
	c := NewContainer("repl")
	sch, err := NewSchema("s", []AttrSpec{{Name: "k", Type: TypeInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex(IndexSpec{Name: "byk", Schema: "s", Attrs: []string{"k"}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := c.InsertOrigin("s", NewObject(int64(i)), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if string(buf.Bytes()[:len(snapMagic3)]) != snapMagic3 {
		t.Fatalf("snapshot magic = %q, want %q", buf.Bytes()[:len(snapMagic3)], snapMagic3)
	}
	c2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	err = c2.IterOrigins("byk", nil, func(_ Object, origin uint64) bool {
		got = append(got, origin)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("restored %d origins, want 5", len(got))
	}
	for i, o := range got {
		if o != uint64(100+i) {
			t.Fatalf("origin[%d] = %d, want %d", i, o, 100+i)
		}
	}
	plain := NewContainer("plain")
	if err := plain.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if err := plain.Insert("s", NewObject(int64(1))); err != nil {
		t.Fatal(err)
	}
	var plainSnap bytes.Buffer
	if err := plain.Snapshot(&plainSnap); err != nil {
		t.Fatal(err)
	}
	c3, err := Restore(&plainSnap)
	if err != nil {
		t.Fatal(err)
	}
	if c3.origins["s"] != nil {
		t.Fatalf("an origin-free container restored with origins %v", c3.origins["s"])
	}
}

// TestWALRowRecordBytes pins read compatibility: frozen v1 row and batch
// records — the bytes the writer wrote before v2, built by hand here —
// replay to their rows, after which a v2 record replays as well.
func TestWALRowRecordBytes(t *testing.T) {
	row := func(b []byte, origin uint64, i int64, s string) []byte {
		b = binary.LittleEndian.AppendUint64(b, origin)
		b = binary.LittleEndian.AppendUint16(b, 2) // values
		b = append(b, walInt64)
		b = binary.LittleEndian.AppendUint64(b, uint64(i))
		b = append(b, walString)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
		return append(b, s...)
	}
	frame := func(log, body []byte) []byte {
		log = binary.LittleEndian.AppendUint32(log, uint32(len(body)))
		log = binary.LittleEndian.AppendUint32(log, crc32.ChecksumIEEE(body))
		return append(log, body...)
	}
	rowRec := row(append(binary.LittleEndian.AppendUint32(nil, 1), 's'), 7, 5, "ab")
	batchRec := append(binary.LittleEndian.AppendUint32(nil, 1|1<<31), 's')
	batchRec = binary.LittleEndian.AppendUint64(batchRec, 3) // token
	batchRec = binary.LittleEndian.AppendUint32(batchRec, 2) // rows
	batchRec = row(row(batchRec, 8, -6, "ab"), 9, 7, "")
	mem := NewMemWAL()
	_, _ = mem.Write(frame(frame(nil, rowRec), batchRec))
	// The writer records the v1 writer produced are these bytes.
	v1 := NewMemWAL()
	appendV1(t, v1, "s", []Object{NewObject(int64(5), "ab")}, []uint64{7}, 0)
	appendV1(t, v1, "s", []Object{NewObject(int64(-6), "ab"), NewObject(int64(7), "")}, []uint64{8, 9}, 3)
	if !bytes.Equal(readLog(t, v1), readLog(t, mem)) {
		t.Fatalf("the v1 reference writer\n wrote %x\n  want %x", readLog(t, v1), readLog(t, mem))
	}
	r, err := ReplayWALTo(mem, math.MaxUint64, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := ResumeWAL(mem, r).Append("s", NewObject(int64(10), "ab"), 10); err != nil {
		t.Fatal(err)
	}
	var got []string
	if _, _, err := replayWAL(mem, func(schema string, obj Object, origin uint64) error {
		got = append(got, fmt.Sprintf("%s %d %q %d", schema, obj.Int(0), obj.Str(1), origin))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{`s 5 "ab" 7`, `s -6 "ab" 8`, `s 7 "" 9`, `s 10 "ab" 10`}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q, want %q", got, want)
	}
}

// TestWALBatchSplitsAtRecordBound: a batch too big for one record is
// written as several, each within the bound and each carrying the batch's
// token, and replays whole.
func TestWALBatchSplitsAtRecordBound(t *testing.T) {
	big := string(bytes.Repeat([]byte{'x'}, 1<<20))
	var rows []Object
	for i := 0; i < 20; i++ { // each string new to the log: 20 MiB of deltas
		rows = append(rows, NewObject(int64(i), big+strconv.Itoa(i)))
	}
	mem := NewMemWAL()
	if err := NewWAL(mem).AppendBatch("s", rows, nil, 9); err != nil {
		t.Fatal(err)
	}
	frames := cleanFrames(readLog(t, mem))
	if len(frames) != 2 {
		t.Fatalf("%d records for a 20 MiB batch, want 2", len(frames))
	}
	n := 0
	for _, fr := range frames {
		if !fr.batch || fr.token != 9 {
			t.Fatalf("record %+v, want a batch tagged 9", fr)
		}
		n += fr.rows
	}
	next := int64(0)
	r, err := ReplayWALTo(mem, 9, func(_ string, obj Object, _ uint64) error {
		if obj.Int(0) != next {
			return fmt.Errorf("row %v out of order", obj)
		}
		next++
		return nil
	})
	if err != nil || n != 20 || r.Rows != 20 || r.Consumed != int64(mem.Len()) {
		t.Fatalf("replayed %+v (err %v) of %d rows in the records", r, err, n)
	}
	if r, _ := ReplayWALTo(mem, 8, func(string, Object, uint64) error { return nil }); r.Rows != 0 || r.Dropped != 20 {
		t.Fatalf("below the token: %+v, want every row dropped", r)
	}
}

// appendV1 logs objs to st as the writer did before v2: the reference for
// read compatibility.
func appendV1(tb testing.TB, st WALStore, schema string, objs []Object, origins []uint64, token uint64) {
	tb.Helper()
	var f Frame
	for len(objs) > 0 {
		rec, n, err := appendWALRecord(f.Begin(), schema, objs, origins, token)
		if err != nil {
			tb.Fatal(err)
		}
		if err := f.Commit(st, rec); err != nil {
			tb.Fatal(err)
		}
		objs = objs[n:]
		if origins != nil {
			origins = origins[n:]
		}
	}
}

// appendWALRecord appends the body of one record holding a prefix of objs
// to rec (a Frame.Begin buffer) and reports how many objects it holds: all
// of them unless the body would pass the record bound, and always at least
// one.
func appendWALRecord(rec []byte, schema string, objs []Object, origins []uint64, token uint64) ([]byte, int, error) {
	originAt := func(i int) uint64 {
		if origins == nil {
			return 0
		}
		return origins[i]
	}
	if len(objs) == 1 && token == 0 {
		rec = appendU32(rec, uint32(len(schema)))
		rec = append(rec, schema...)
		rec, err := appendWALRow(rec, objs[0], originAt(0))
		return rec, 1, err
	}
	rec = appendU32(rec, uint32(len(schema))|walBatch)
	rec = append(rec, schema...)
	rec = binary.LittleEndian.AppendUint64(rec, token)
	at := len(rec)
	rec = appendU32(rec, 0) // the row count, filled in below
	n := 0
	for n < len(objs) {
		end := len(rec)
		var err error
		if rec, err = appendWALRow(rec, objs[n], originAt(n)); err != nil {
			return nil, 0, err
		}
		if n > 0 && len(rec)-FrameHeader > walMaxRecord {
			rec = rec[:end]
			break
		}
		n++
	}
	binary.LittleEndian.PutUint32(rec[at:], uint32(n))
	return rec, n, nil
}

// appendWALRow appends one row to b, from its words.
func appendWALRow(b []byte, obj Object, origin uint64) ([]byte, error) {
	if obj.Len() > math.MaxUint16 {
		return nil, fmt.Errorf("sos: wal record with %d values", obj.Len())
	}
	b = binary.LittleEndian.AppendUint64(b, origin)
	b = binary.LittleEndian.AppendUint16(b, uint16(obj.Len()))
	for i, t := range obj.types() {
		if t < walInt64 || t > walString {
			return nil, fmt.Errorf("sos: wal cannot encode value of type %s", obj.typeName(i))
		}
		b = append(b, byte(t))
		if t == TypeString {
			v := obj.str(obj.word(i))
			b = appendU32(b, uint32(len(v)))
			b = append(b, v...)
		} else {
			b = binary.LittleEndian.AppendUint64(b, obj.word(i))
		}
	}
	return b, nil
}

// BenchmarkReplayWAL replays 1M darshan-shaped rows logged in 16-row
// records, the shape of a dsosd shard log under a durable firehose (64
// messages a round over 4 shards), from a file. It reports ns/row and
// allocs/row for the whole replay.
func BenchmarkReplayWAL(b *testing.B) {
	const rows, perRecord = 1 << 20, 16
	fw, err := OpenFileWAL(filepath.Join(b.TempDir(), "shard.wal"))
	if err != nil {
		b.Fatal(err)
	}
	defer fw.Close()
	w, batch := NewWAL(fw), darshanRows(perRecord)
	for i := 0; i < rows; i += perRecord {
		if err := w.AppendBatch("darshanConnector", batch(i), nil, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	fi, err := os.Stat(fw.path)
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		n, _, err := replayWAL(fw, func(string, Object, uint64) error { return nil })
		if err != nil || n != rows {
			b.Fatalf("replayed %d of %d rows: %v", n, rows, err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*rows), "allocs/row")
	b.ReportMetric(float64(fi.Size())/rows, "B/row")
}

// darshanRows returns a builder of n rows at a time shaped like the
// darshan schema's (seven strings, fifteen integers, two floats), with
// values that vary the way a run's events do: a few producers, files and
// ranks, rising offsets and timestamps.
func darshanRows(n int) func(start int) []Object {
	types := []Type{TypeString, TypeInt64, TypeString, TypeInt64, TypeString, TypeInt64, TypeInt64, TypeUint64,
		TypeString, TypeInt64, TypeString, TypeInt64, TypeString, TypeInt64, TypeInt64, TypeInt64,
		TypeFloat64, TypeInt64, TypeInt64, TypeInt64, TypeInt64, TypeString, TypeInt64, TypeFloat64}
	attrs := make([]AttrSpec, len(types))
	for i, t := range types {
		attrs[i] = AttrSpec{Name: "a" + strconv.Itoa(i), Type: t}
	}
	sch, err := NewSchema("darshanConnector", attrs)
	if err != nil {
		panic(err)
	}
	rb := NewRowBuilder(sch)
	ops := []string{"open", "write", "read", "close"}
	out := make([]Object, n)
	return func(start int) []Object {
		for k := range out {
			i := start + k
			rank := i * 7919 % 64
			rb.Begin()
			rb.SetStr(0, "POSIX", nil, 0)
			rb.SetInt(1, 99066)
			rb.SetStr(2, "nid000"+strconv.Itoa(40+rank%8), nil, 0)
			rb.SetStr(4, "/nscratch/out."+strconv.Itoa(rank%16), nil, 0)
			rb.SetInt(5, int64(rank))
			rb.SetUint(7, uint64(rank)*0x9e3779b97f4a7c15)
			rb.SetStr(8, "/bin/app", nil, 0)
			rb.SetInt(9, -1)
			rb.SetStr(10, "MOD", nil, 0)
			rb.SetInt(11, int64(1+i/(1<<18)))
			rb.SetStr(12, ops[i%4], nil, 0)
			rb.SetInt(13, int64(1+i/64))
			rb.SetInt(14, int64(i/64)*4096)
			rb.SetInt(15, -1)
			rb.SetFloat(16, float64(i%1000)/1e5)
			rb.SetInt(17, 4096)
			for a := 18; a <= 20; a++ {
				rb.SetInt(a, -1)
			}
			rb.SetStr(21, "N/A", nil, 0)
			rb.SetInt(22, -1)
			rb.SetFloat(23, 1.7e9+float64(i)/1e4)
			out[k] = rb.Row()
		}
		return out
	}
}

// failingStore fails the next write it is told to, writing nothing.
type failingStore struct {
	*MemWAL
	fail bool
}

func (s *failingStore) Write(p []byte) (int, error) {
	if s.fail {
		s.fail = false
		return 0, errors.New("disk full")
	}
	return s.MemWAL.Write(p)
}

// TestWALWriterStaysInStepWithItsLog: the writer's dictionary holds what
// its log holds. A failed write takes back the strings of the record it
// lost, and a batch whose rows change types is split into records that
// each carry their own type list and delta; both logs replay whole.
func TestWALWriterStaysInStepWithItsLog(t *testing.T) {
	st := &failingStore{MemWAL: NewMemWAL()}
	w := NewWAL(st)
	if err := w.Append("s", NewObject(int64(1), "a"), 0); err != nil {
		t.Fatal(err)
	}
	st.fail = true
	if err := w.AppendBatch("s", []Object{NewObject(int64(2), "lost")}, nil, 0); err == nil {
		t.Fatal("a failed write reported no error")
	}
	rows := []Object{NewObject(int64(3), "lost"), NewObject("mixed", int64(4)), NewObject(int64(5), "a")}
	if err := w.AppendBatch("s", rows, nil, 0); err != nil {
		t.Fatal(err)
	}
	if frames := cleanFrames(readLog(t, st.MemWAL)); len(frames) != 4 {
		t.Fatalf("%d records, want the first row's and one per run of row types", len(frames))
	}
	var got []string
	r, err := ReplayWALTo(st, math.MaxUint64, func(_ string, o Object, _ uint64) error {
		got = append(got, o.String())
		return nil
	})
	want := []string{"[1 a]", "[3 lost]", "[mixed 4]", "[5 a]"}
	if err != nil || r.Consumed != int64(st.Len()) || !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed %q (%+v, %v), want %q", got, r, err, want)
	}
}

// TestReadFrameAt: a frame reads back from its offset and body length,
// and a wrong length or offset, a flipped byte and an I/O error are all
// errors.
func TestReadFrameAt(t *testing.T) {
	w := NewMemWAL()
	for _, body := range []string{"hello", "world!"} {
		if err := appendFrame(w, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		off  int64
		n    uint32
		want string
	}{{0, 5, "hello"}, {13, 6, "world!"}, {0, 6, ""}, {0, 4, ""}, {1, 5, ""}, {13, 7, ""}, {100, 5, ""}, {0, 0, ""}, {-1, 5, ""}} {
		body, err := ReadFrameAt(w, tc.off, tc.n)
		if string(body) != tc.want || (err == nil) != (tc.want != "") {
			t.Fatalf("ReadFrameAt(%d, %d) = %q, %v; want %q", tc.off, tc.n, body, err, tc.want)
		}
	}
	w.buf[10] ^= 0xFF
	if _, err := ReadFrameAt(w, 0, 5); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("a flipped body byte: %v", err)
	}
	if _, err := ReadFrameAt(failingReaderAt{}, 0, 5); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("an I/O error: %v", err)
	}
}

type failingReaderAt struct{}

func (failingReaderAt) ReadAt([]byte, int64) (int, error) { return 0, io.ErrUnexpectedEOF }

// appendFrame writes body as one framed record.
func appendFrame(st io.Writer, body []byte) error {
	var f Frame
	return f.Commit(st, append(f.Begin(), body...))
}

// TestReplace: a store's Replace swaps in, whole, what fill wrote, and
// appends and reads then go to the new bytes; a fill that fails leaves
// the old bytes, still appended to. A FileWAL leaves no temporary beside
// the log either way, and OpenFileWAL removes one a crash left.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	fw, err := OpenFileWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { fw.Close() }()
	for name, st := range map[string]WALStore{"mem": NewMemWAL(), "file": fw} {
		read := func() string {
			r, err := st.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			b, _ := io.ReadAll(r)
			return string(b)
		}
		_, _ = st.Write([]byte("old bytes"))
		boom := errors.New("boom")
		if err := st.Replace(func(w io.Writer) error {
			_, _ = w.Write([]byte("half"))
			return boom
		}); !errors.Is(err, boom) {
			t.Fatalf("%s: a failed fill: %v", name, err)
		}
		_, _ = st.Write([]byte("+"))
		if got := read(); got != "old bytes+" {
			t.Fatalf("%s: after a failed fill the log reads %q", name, got)
		}
		if err := st.Replace(func(w io.Writer) error {
			_, err := w.Write([]byte("new"))
			return err
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, _ = st.Write([]byte("+appended"))
		buf := make([]byte, 3)
		if got := read(); got != "new+appended" {
			t.Fatalf("%s: after a replace the log reads %q", name, got)
		}
		if _, err := st.ReadAt(buf, 4); err != nil || string(buf) != "app" {
			t.Fatalf("%s: ReadAt after a replace: %q, %v", name, buf, err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(left) > 0 {
			t.Fatalf("%s: %v left beside the log", name, left)
		}
	}
	fw.Close()
	if err := os.WriteFile(path+".tmp", []byte("a crash's temporary"), 0o644); err != nil {
		t.Fatal(err)
	}
	if fw, err = OpenFileWAL(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the temporary survived OpenFileWAL: %v", err)
	}
}
