package sos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"testing"
)

// treeOrder gives spec a tree of its own, as every index had before
// time_job_rank was read from the pages: the reference that order is held
// to.
func treeOrder(tb testing.TB, c *Container, spec IndexSpec) {
	tb.Helper()
	ix, err := c.newIndex(spec)
	if err != nil {
		tb.Fatal(err)
	}
	c.addTree(ix)
	c.indices[spec.Name] = ix
}

// derivedContainer returns a container of job, rank, timestamp and a
// payload in pages of 1<<shift rows, with the three darshan orders, of
// which time_job_rank is read from the pages, and that order's reference
// tree, ref_time_job_rank.
func derivedContainer(tb testing.TB, shift uint) *Container {
	tb.Helper()
	sch, err := NewSchema("ev", []AttrSpec{{Name: "job_id", Type: TypeInt64}, {Name: "rank", Type: TypeInt64},
		{Name: "timestamp", Type: TypeFloat64}, {Name: "x", Type: TypeInt64}})
	if err != nil {
		tb.Fatal(err)
	}
	c := NewContainer("derived")
	if err := c.AddSchema(sch); err != nil {
		tb.Fatal(err)
	}
	smallPages(c, shift)
	for _, spec := range darshanIndexes {
		if _, err := c.AddIndex(spec); err != nil {
			tb.Fatal(err)
		}
	}
	if c.Index("job_time_rank").tree == nil || c.Index("time_job_rank").tree != nil {
		tb.Fatal("time_job_rank is not the one order read from the pages")
	}
	spec := darshanIndexes[2]
	spec.Name = "ref_" + spec.Name
	treeOrder(tb, c, spec)
	return c
}

// derivedDraw turns fuzz bytes into rows and bounds.
type derivedDraw struct {
	keyDraw
	clock float64 // the on-time timestamp, which only rises
	x     int64
}

// ts draws a row's timestamp: mostly on time (often equal to the last),
// sometimes up to 64 s late or a little early, sometimes an edge value.
func (d *derivedDraw) ts() float64 {
	switch b := d.byte(); {
	case b < 150:
		d.clock += float64(b%4) * 0.25
		return d.clock
	case b < 220:
		return d.clock - float64(b%64)
	case b < 240:
		return d.clock + float64(b%8)
	default:
		return [...]float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300, -1e300}[b%8]
	}
}

// insert adds 1 + b%64 rows of drawn jobs, ranks and timestamps.
func (d *derivedDraw) insert(tb testing.TB, c *Container) {
	for n := 1 + int(d.byte()%64); n > 0; n-- {
		b := d.byte()
		d.x++
		if err := c.Insert("ev", NewObject(int64(b%4), int64(b/4%6), d.ts(), d.x)); err != nil {
			tb.Fatal(err)
		}
	}
}

// bound draws a bound of the order attrs (nil, or a prefix of 0 to 3
// values) around the stored values.
func (d *derivedDraw) bound(attrs []string) Key {
	b := d.byte()
	if b%5 == 4 {
		return nil
	}
	k := Key{}
	for _, a := range attrs[:b%5%4] {
		switch v := d.byte(); a {
		case "timestamp":
			if v >= 240 {
				k = append(k, d.ts())
			} else {
				k = append(k, d.clock-float64(v%80)+float64(v%4)*0.25)
			}
		case "job_id":
			k = append(k, int64(v%6)-1)
		default:
			k = append(k, int64(v%8)-1)
		}
	}
	return k
}

// scanKeys reads every key a cursor gives, up to limit (0: all).
func scanKeys(cur Cursor, limit int) [][]byte {
	defer cur.Close()
	var keys [][]byte
	for (limit == 0 || len(keys) < limit) && cur.Next() {
		k := cur.AppendKey(nil)
		if int(binary.BigEndian.Uint32(k[len(k)-KeySuffixLen:])) != cur.pos() {
			panic("the key's position is not the row's")
		}
		keys = append(keys, k)
	}
	return keys
}

// sameKeys fails unless got and want are the same keys in the same order.
func sameKeys(t *testing.T, what string, got, want [][]byte) {
	t.Helper()
	for i := range min(len(got), len(want)) {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: key %d is %x, the tree's %x", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, the tree %d", what, len(got), len(want))
	}
}

// FuzzDerivedOrderMatchesTree holds time_job_rank, read from the pages, to
// a tree of its own: for every range, a scan gives the keys (and so the
// rows) the tree gives, in its order, ties broken by position; a scan
// resumed with CursorAfter its last key, across inserts that land between
// chunks, gives the resumed tree scan's; and CursorAfter any bytes seeks
// as the tree does. Rows arrive late, early, tied and at the float edges.
//
// Input bytes, each read as 0 once the input runs out: the page size
// (1<<(1+b%4) rows), then operations while input lasts, each a byte: an
// insert of drawn rows (derivedDraw.insert); a scan of an order over a
// drawn [from, to); a chunked scan with an insert between chunks; or a
// CursorAfter of drawn bytes.
func FuzzDerivedOrderMatchesTree(f *testing.F) {
	f.Add([]byte("\x02\x00\x3f\x01\x02\x03\x04\x05\x06\x07\x08\x01\x00\x00\x02\x01\x04\x03"))
	f.Add([]byte("\x03\x00\xff\xd0\xd1\xd2\x10\x11\x12\x13\xd4\xd5\xf0\xf1\xf2\xf3\xf4\xf5\xf6\xf7\x02\x05\x02\x01\x20\x02\x03\x01\x07\x03\x00\x04\x21\x08"))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &derivedDraw{keyDraw: keyDraw{data}, clock: 100}
		c := derivedContainer(t, uint(1+d.byte()%4))
		for ops := 0; len(d.data) > 0 && ops < 64; ops++ {
			op, spec := d.byte(), darshanIndexes[2]
			ref := "ref_" + spec.Name
			switch op % 4 {
			case 0:
				d.insert(t, c)
			case 1:
				from, to := d.bound(spec.Attrs), d.bound(spec.Attrs)
				got, err := c.Cursor(spec.Name, from, to)
				if err != nil {
					t.Fatal(err)
				}
				want, _ := c.Cursor(ref, from, to)
				sameKeys(t, fmt.Sprintf("%s [%v, %v)", spec.Name, from, to), scanKeys(got, 0), scanKeys(want, 0))
			case 2:
				from, to, chunk := d.bound(spec.Attrs), d.bound(spec.Attrs), 1+int(d.byte()%32)
				var gotAll, wantAll [][]byte
				got, _ := c.Cursor(spec.Name, from, to)
				want, _ := c.Cursor(ref, from, to)
				for {
					g, w := scanKeys(got, chunk), scanKeys(want, chunk)
					sameKeys(t, fmt.Sprintf("%s [%v, %v) chunk %d", spec.Name, from, to, len(gotAll)/chunk), g, w)
					gotAll, wantAll = append(gotAll, g...), append(wantAll, w...)
					if len(g) < chunk {
						break
					}
					if len(gotAll) <= 16*chunk { // later chunks insert nothing, or a scan could chase its inserts
						d.insert(t, c)
					}
					got, _ = c.CursorAfter(spec.Name, g[len(g)-1], to)
					want, _ = c.CursorAfter(ref, w[len(w)-1], to)
				}
			case 3:
				after := make([]byte, d.byte()%40)
				for i := range after {
					after[i] = d.byte()
				}
				to := d.bound(spec.Attrs)
				got, _ := c.CursorAfter(spec.Name, after, to)
				want, _ := c.CursorAfter(ref, after, to)
				sameKeys(t, fmt.Sprintf("%s after %x to %v", spec.Name, after, to), scanKeys(got, 0), scanKeys(want, 0))
			}
		}
		all, _ := c.Cursor("ref_time_job_rank", nil, nil)
		if n := len(scanKeys(all, 0)); n != c.Count("ev") {
			t.Fatalf("the reference holds %d rows of %d", n, c.Count("ev"))
		}
	})
}

// TestThreeTreesSnapshotRestoresTwo: a darshan shard's snapshot written
// when each of the three orders was a tree (dsos's read-compat file, whose
// answers TestThreeTreesSnapshotReadCompat holds) restores with
// time_job_rank read from the pages: two trees are built, not three.
func TestThreeTreesSnapshotRestoresTwo(t *testing.T) {
	f, err := os.Open("../dsos/testdata/threetrees.snap3")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	c, err := Restore(f)
	if err != nil {
		t.Fatal(err)
	}
	var trees []string
	for _, name := range c.Indices() {
		if c.Index(name).tree != nil {
			trees = append(trees, name)
		}
	}
	if fmt.Sprint(trees) != "[job_rank_time job_time_rank]" {
		t.Errorf("restored trees %v, want job_rank_time and job_time_rank", trees)
	}
}

// TestPageWalkConcurrentReaders: cursors opened, drained and closed from
// several goroutines at once on a container no one writes share the
// index's spare buffers safely (run it with -race), and each reads the
// rows the tree reads.
func TestPageWalkConcurrentReaders(t *testing.T) {
	c := derivedContainer(t, 3)
	d := &derivedDraw{keyDraw: keyDraw{[]byte("\x00\x3f\x10\xd0\x11\x12\xc8\x13\x00\x3f\x14\xf2\x15\x16\x17\x18")}, clock: 100}
	for range 8 {
		d.insert(t, c)
	}
	ref, _ := c.Cursor("ref_time_job_rank", nil, nil)
	want := scanKeys(ref, 0)
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				cur, err := c.Cursor("time_job_rank", nil, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if got := scanKeys(cur, 0); !slices.EqualFunc(got, want, bytes.Equal) {
					t.Errorf("goroutine %d read %d keys unlike the tree's %d", g, len(got), len(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTwoAttributePageOrder: an order of two attributes read from the
// pages, (timestamp, job_id) over a (job_id, timestamp) tree, gives its
// own tree's keys and rows, whole and from bounds of each length.
func TestTwoAttributePageOrder(t *testing.T) {
	c := derivedContainer(t, 2)
	if _, err := c.AddIndex(IndexSpec{Name: "job_time", Schema: "ev", Attrs: []string{"job_id", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	spec := IndexSpec{Name: "time_job", Schema: "ev", Attrs: []string{"timestamp", "job_id"}}
	if ix, err := c.AddIndex(spec); err != nil || ix.tree != nil {
		t.Fatalf("time_job: %v, a tree %v", err, ix.tree != nil)
	}
	spec.Name = "ref_time_job"
	treeOrder(t, c, spec)
	d := &derivedDraw{keyDraw: keyDraw{[]byte("\x3f\x10\xd0\x11\xf2\x12\xc8\x13\x3f\x14\xd9\x15\x16\x17\x18\x3f\x19\xe8")}, clock: 100}
	for range 6 {
		d.insert(t, c)
	}
	for _, b := range [][2]Key{{nil, nil}, {{97.0}, {101.5}}, {{99.0, int64(2)}, {103.0, int64(1)}}} {
		got, err := c.Cursor("time_job", b[0], b[1])
		if err != nil {
			t.Fatal(err)
		}
		want, _ := c.Cursor("ref_time_job", b[0], b[1])
		sameKeys(t, fmt.Sprintf("[%v, %v)", b[0], b[1]), scanKeys(got, 0), scanKeys(want, 0))
	}
}
