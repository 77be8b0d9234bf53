package sos

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
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
