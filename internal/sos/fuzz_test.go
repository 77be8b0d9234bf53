package sos

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// FuzzRestore hardens the snapshot parser: arbitrary bytes must either
// restore or error, never panic or exhaust memory on implausible counts.
func FuzzRestore(f *testing.F) {
	c := NewContainer("fz")
	sch, _ := NewSchema("ev", []AttrSpec{
		{Name: "job_id", Type: TypeInt64},
		{Name: "name", Type: TypeString},
		{Name: "v", Type: TypeFloat64},
	})
	_ = c.AddSchema(sch)
	_, _ = c.AddIndex(IndexSpec{Name: "j", Schema: "ev", Attrs: []string{"job_id"}})
	for i := 0; i < 5; i++ {
		_ = c.Insert("ev", NewObject(int64(i), "x", float64(i)))
	}
	var buf bytes.Buffer
	_ = c.Snapshot(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte(snapMagic))
	f.Add([]byte("SOS-GO-SNAP1garbage here"))
	f.Add([]byte{})
	for _, fault := range v3Faults() {
		f.Add(fault.snap)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c2, err := Restore(bytes.NewReader(data))
		if err == nil && c2 == nil {
			t.Fatal("nil container without error")
		}
		if err == nil {
			// A restored container must survive iteration of its indices.
			for _, name := range c2.Indices() {
				_ = c2.Iter(name, nil, func(Object) bool { return true })
			}
		}
	})
}

// v3Page is one page of a hand-built v3 snapshot: its stride, each
// attribute's base, width and offset, and its packed rows.
type v3Page struct {
	stride uint64
	cols   [2][3]uint64
	rows   []byte
}

// v3Snapshot hand-builds a v3 snapshot of schema ev (job_id int64, name
// string) over the dictionary {"", "x"}: perPage rows a page, n rows in
// pages, and an index on job_id.
func v3Snapshot(perPage, n uint64, pages ...v3Page) []byte {
	var snap bytes.Buffer
	snap.WriteString(snapMagic3)
	zw := gzip.NewWriter(&snap)
	bw := bufio.NewWriter(zw)
	e := &snapEnc{w: bw}
	e.str("fz")
	e.u64(n) // next object id
	e.u64(2)
	e.str("")
	e.str("x")
	e.u64(1)
	e.str("ev")
	e.u64(2)
	e.str("job_id")
	e.u64(uint64(TypeInt64))
	e.str("name")
	e.u64(uint64(TypeString))
	e.u64(n)
	e.u64(perPage)
	e.u64(0) // no origins
	for _, p := range pages {
		e.u64(p.stride)
		for _, c := range p.cols {
			e.u64(c[0])
			e.u64(c[1])
			e.u64(c[2])
		}
		e.write(p.rows)
	}
	e.u64(1)
	e.str("j")
	e.str("ev")
	e.u64(1)
	e.str("job_id")
	if e.err != nil || bw.Flush() != nil || zw.Close() != nil {
		panic("building a snapshot in memory failed")
	}
	return snap.Bytes()
}

// v3Faults returns a valid hand-built v3 snapshot (5 rows in pages of 4:
// one full page, then one row) and variants of it that Restore must
// refuse, each with the words its error names.
func v3Faults() []struct {
	name, err string
	snap      []byte
} {
	full := func(stride uint64, job, name [3]uint64) v3Page {
		rows := make([]byte, 4*stride)
		for r := uint64(0); r < 4; r++ { // job offset r, then name id r&1
			rows[r*stride], rows[r*stride+1] = byte(r), byte(r&1)
		}
		return v3Page{stride, [2][3]uint64{job, name}, rows}
	}
	last := v3Page{1, [2][3]uint64{{20, 1, 0}, {1, 0, 1}}, []byte{5}}
	valid := v3Snapshot(4, 5, full(2, [3]uint64{10, 1, 0}, [3]uint64{0, 1, 1}), last)
	return []struct {
		name, err string
		snap      []byte
	}{
		{"valid", "", valid},
		{"truncated", "EOF", valid[:len(valid)/2]},
		{"stride is not the sum of widths", "a 3-byte row of attributes 2 bytes wide", v3Snapshot(4, 5, full(3, [3]uint64{10, 1, 0}, [3]uint64{0, 1, 1}), last)},
		{"width 9", "attribute 0 (int64) of 9 bytes", v3Snapshot(4, 5, full(2, [3]uint64{10, 9, 0}, [3]uint64{0, 1, 1}), last)},
		{"offset past the stride", "attribute 1 (string) of 1 bytes at offset 5 in a 2-byte row", v3Snapshot(4, 5, full(2, [3]uint64{10, 1, 0}, [3]uint64{0, 1, 5}), last)},
		{"string id past the dictionary", "string id past the dictionary's 2", v3Snapshot(4, 5, full(2, [3]uint64{10, 1, 0}, [3]uint64{1, 1, 1}), last)},
		{"row count past maxRows", "4294967296 rows, 0 origins; at most 4294967295 rows", v3Snapshot(4, maxRows+1, full(2, [3]uint64{10, 1, 0}, [3]uint64{0, 1, 1}), last)},
		{"pages larger than this build's", "pages of 8192 rows; this build's pages hold 4096", v3Snapshot(8192, 5, full(2, [3]uint64{10, 1, 0}, [3]uint64{0, 1, 1}), last)},
	}
}

// TestRestoreV3Faults: Restore refuses each hostile variant of a v3
// snapshot with an error naming the fault, and restores the valid one
// with the page size it was written with.
func TestRestoreV3Faults(t *testing.T) {
	for _, fault := range v3Faults() {
		c, err := Restore(bytes.NewReader(fault.snap))
		if fault.err == "" {
			if err != nil {
				t.Fatalf("%s: %v", fault.name, err)
			}
			var jobs []int64
			var names []string
			c.Iter("j", nil, func(o Object) bool {
				jobs, names = append(jobs, o.Int(0)), append(names, o.Str(1))
				return true
			})
			if !slices.Equal(jobs, []int64{10, 11, 12, 13, 25}) || !slices.Equal(names, []string{"", "x", "", "x", "x"}) || c.slabs["ev"].shift != 2 {
				t.Fatalf("%s: restored jobs %v names %q in pages of %d rows", fault.name, jobs, names, 1<<c.slabs["ev"].shift)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), fault.err) {
			t.Errorf("%s: error %v, want one naming %q", fault.name, err, fault.err)
		}
	}
}

// FuzzReplayWAL hardens the floor-bounded log replay. The first two bytes
// are the floor (little endian), the rest a log. Whatever the bytes, the
// replay must not panic, must allocate in proportion to the log rather
// than to a count or length it declares, must stop on a frame boundary,
// and must apply exactly the rows of the clean records before it — none
// of them a batch tagged above the floor.
func FuzzReplayWAL(f *testing.F) {
	mem := NewMemWAL()
	w := NewWAL(mem)
	_ = w.Append("ev", NewObject(int64(1), "x"), 0)
	_ = w.AppendBatch("ev", []Object{NewObject(int64(2), "y"), NewObject(int64(3), "z")}, []uint64{7, 8}, 4)
	_ = w.AppendBatch("ev", []Object{NewObject(int64(4), "w")}, nil, 9)
	log := readLog(f, mem)
	for _, floor := range []uint16{0, 4, 9} {
		f.Add(append(binary.LittleEndian.AppendUint16(nil, floor), log...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		floor, log := uint64(binary.LittleEndian.Uint16(data)), data[2:]
		mem := NewMemWAL()
		_, _ = mem.Write(log)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		applied := 0
		r, err := ReplayWALTo(mem, floor, func(string, Object, uint64) error {
			applied++
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("replay with an apply that never fails: %v", err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64*uint64(len(log))+1<<20 {
			t.Fatalf("replaying %d bytes allocated %d", len(log), alloc)
		}
		// The oracle walks the clean frames itself: each frame's end, and the
		// batch flag, token and declared rows of its body.
		var end int64
		rows := 0
		for _, fr := range cleanFrames(log) {
			if end == r.Consumed {
				break
			}
			if fr.batch && fr.token > floor {
				t.Fatalf("applied a batch tagged %d above the floor %d", fr.token, floor)
			}
			rows += fr.rows
			end = fr.end
		}
		if end != r.Consumed {
			t.Fatalf("consumed %d bytes: not a frame boundary", r.Consumed)
		}
		if applied != r.Rows || rows != r.Rows {
			t.Fatalf("applied %d rows, reported %d, the records before the cut declare %d", applied, r.Rows, rows)
		}
		if r.Above != 0 && r.Above <= floor {
			t.Fatalf("stopped at token %d, which is not above the floor %d", r.Above, floor)
		}
	})
}

// walFrame is what the FuzzReplayWAL oracle knows of one clean frame.
type walFrame struct {
	end   int64 // offset just past the frame
	batch bool
	token uint64
	rows  int
}

// cleanFrames walks the length+CRC frames of log up to the first torn or
// corrupt one, reading each body's header words.
func cleanFrames(log []byte) []walFrame {
	var out []walFrame
	var off int64
	for len(log) >= 8 {
		n := binary.LittleEndian.Uint32(log)
		if n == 0 || n > walMaxRecord || uint64(len(log)-8) < uint64(n) {
			break
		}
		body := log[8 : 8+n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(log[4:]) {
			break
		}
		off += int64(8 + n)
		fr := walFrame{end: off, rows: 1}
		if len(body) >= 4 {
			word := binary.LittleEndian.Uint32(body)
			fr.batch = word&(1<<31) != 0
			v2 := fr.batch && word&(1<<30) != 0
			sn := uint64(word &^ (1<<31 | 1<<30))
			switch {
			case v2 && uint64(len(body)) >= 4+sn+1:
				// version byte, then the token and the row count as uvarints
				head := body[4+sn+1:]
				token, k := binary.Uvarint(head)
				if k > 0 {
					rows, _ := binary.Uvarint(head[k:])
					fr.token, fr.rows = token, int(rows)
				}
			case fr.batch && !v2 && uint64(len(body)) >= 4+sn+12:
				fr.token = binary.LittleEndian.Uint64(body[4+sn:])
				fr.rows = int(binary.LittleEndian.Uint32(body[4+sn+8:]))
			}
		}
		out = append(out, fr)
		log = log[8+n:]
	}
	return out
}

func readLog(tb testing.TB, m *MemWAL) []byte {
	tb.Helper()
	r, err := m.Open()
	if err != nil {
		tb.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
