package sos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

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
	recs, consumed, err := ReplayWAL(mem, func(schema string, obj Object, origin uint64) error {
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
	mem.Truncate(clean + 5) // tear the 11th record mid-body

	recs, consumed, err := ReplayWAL(mem, func(string, Object, uint64) error { return nil })
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

	recs, _, err := ReplayWAL(mem, func(string, Object, uint64) error { return nil })
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
	recs, consumed, err := ReplayWAL(fw2, func(string, Object, uint64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if recs != 7 {
		t.Fatalf("recovered %d records, want 7", recs)
	}
	if err := fw2.Reset(consumed); err != nil {
		t.Fatal(err)
	}
	w2 := NewWAL(fw2)
	if err := w2.Append("darshan", walObj(7), 7); err != nil {
		t.Fatal(err)
	}
	recs, _, err = ReplayWAL(fw2, func(string, Object, uint64) error { return nil })
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
// and origin-free containers keep the original snapshot format.
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
	if string(buf.Bytes()[:len(snapMagic2)]) != snapMagic2 {
		t.Fatalf("snapshot magic = %q, want %q", buf.Bytes()[:len(snapMagic2)], snapMagic2)
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
}

// TestWALRowRecordBytes pins the row record: a one-row batch with token 0
// is written byte for byte as the log wrote inserts before batch records
// existed, so those logs and the bytes per event stay as they were.
func TestWALRowRecordBytes(t *testing.T) {
	body := binary.LittleEndian.AppendUint32(nil, 1)
	body = append(body, 's')
	body = binary.LittleEndian.AppendUint64(body, 7) // origin
	body = binary.LittleEndian.AppendUint16(body, 2) // values
	body = append(body, walInt64)
	body = binary.LittleEndian.AppendUint64(body, uint64(5))
	body = append(body, walString)
	body = binary.LittleEndian.AppendUint32(body, 2)
	body = append(body, "ab"...)
	want := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	want = binary.LittleEndian.AppendUint32(want, crc32.ChecksumIEEE(body))
	want = append(want, body...)
	for _, write := range []func(*WAL) error{
		func(w *WAL) error { return w.Append("s", NewObject(int64(5), "ab"), 7) },
		func(w *WAL) error { return w.AppendBatch("s", []Object{NewObject(int64(5), "ab")}, []uint64{7}, 0) },
	} {
		mem := NewMemWAL()
		if err := write(NewWAL(mem)); err != nil {
			t.Fatal(err)
		}
		if got := readLog(t, mem); !bytes.Equal(got, want) {
			t.Fatalf("row record\n got %x\nwant %x", got, want)
		}
	}
}

// TestWALBatchSplitsAtRecordBound: a batch too big for one record is
// written as several, each within the bound and each carrying the batch's
// token, and replays whole.
func TestWALBatchSplitsAtRecordBound(t *testing.T) {
	big := string(bytes.Repeat([]byte{'x'}, 1<<20))
	var rows []Object
	for i := 0; i < 20; i++ {
		rows = append(rows, NewObject(int64(i), big))
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
