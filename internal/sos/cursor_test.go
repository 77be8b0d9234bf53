package sos

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"darshanldms/internal/rng"
)

// referenceRange is Range as it was before the cursor: seek from, then
// build each object's key from its attributes to check the upper bound.
func referenceRange(t *testing.T, c *Container, index string, from, to Key) []Object {
	t.Helper()
	ix := c.Index(index)
	var out []Object
	it := ix.tree.seek(appendKey(nil, from), false)
	for ; it.valid(); it.next() {
		o := c.slabs[ix.spec.Schema].object(it.pos(), c.dict.strs)
		if to != nil {
			key := make(Key, 0, len(ix.attrIdxs))
			for _, ai := range ix.attrIdxs {
				key = append(key, o.Value(ai))
			}
			if CompareKeys(key, to) >= 0 {
				break
			}
		}
		out = append(out, o)
	}
	return out
}

// rowValues returns each row's Values, for comparing rows by value.
func rowValues(objs []Object) [][]any {
	out := make([][]any, len(objs))
	for i, o := range objs {
		out[i] = o.Values()
	}
	return out
}

func fillEvents(t *testing.T, c *Container, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		obj := NewObject(int64(r.Intn(4)), int64(r.Intn(6)), float64(r.Intn(30)), "write", int64(i))
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCursorMatchesReferenceRange: the cursor's in-place bound check on
// the tree key's prefix returns exactly what building every object's key
// did, over bounds of every length, empty and inverted ranges included.
func TestCursorMatchesReferenceRange(t *testing.T) {
	c := newTestContainer(t)
	fillEvents(t, c, 3000, 1)
	r := rng.New(2)
	bound := func() Key {
		switch r.Intn(4) {
		case 0:
			return nil
		case 1:
			return Key{int64(r.Intn(5))}
		case 2:
			return Key{int64(r.Intn(5)), int64(r.Intn(7))}
		}
		return Key{int64(r.Intn(5)), int64(r.Intn(7)), float64(r.Intn(31))}
	}
	for i := 0; i < 300; i++ {
		from, to := bound(), bound()
		got, err := c.Range("job_rank_time", from, to)
		if err != nil {
			t.Fatal(err)
		}
		if want := referenceRange(t, c, "job_rank_time", from, to); !reflect.DeepEqual(rowValues(got), rowValues(want)) {
			t.Fatalf("[%v, %v): %d objects, reference %d", from, to, len(got), len(want))
		}
	}
}

// TestCursorAfterResumesPastInserts: a scan that reopens with CursorAfter
// the last key it saw, with inserts in between, returns every object it
// would have returned without the inserts, in order, plus exactly the
// inserted ones whose keys sort past the resume point. The inserts land in
// the resume key's own region, shifting the tree's bytes under it: the
// scan resumes from a copy. It resumes as well across a repack and a split
// of the leaf that held its last key (resumeAcrossRepackAndSplit).
func TestCursorAfterResumesPastInserts(t *testing.T) {
	resumeAcrossRepackAndSplit(t)
	c := newTestContainer(t)
	fillEvents(t, c, 1000, 3)
	want, _ := c.Range("job_rank_time", Key{int64(1)}, Key{int64(3)})
	cur, err := c.Cursor("job_rank_time", Key{int64(1)}, Key{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	var got []Object
	late := 0
	for step := 0; ; step++ {
		n := 0
		var last []byte
		for n < 37 && cur.Next() {
			got = append(got, cur.Object())
			last = cur.AppendKey(last[:0])
			n++
		}
		if n < 37 {
			break
		}
		// Inserts in both jobs of the range, behind or ahead of the scan
		// depending on where it stands, and one past the range's end. One
		// at or past the scan's position is seen: its new slab position
		// sorts it after the last key even on equal attributes.
		for _, job := range []int64{1, 2, 3} {
			if err := c.Insert("darshan_event", NewObject(job, int64(0), 0.5, "late", int64(-step))); err != nil {
				t.Fatal(err)
			}
			if job < 3 && bytes.Compare(appendKey(nil, Key{job, int64(0), 0.5}), last[:len(last)-KeySuffixLen]) >= 0 {
				late++
			}
		}
		if cur, err = c.CursorAfter("job_rank_time", last, Key{int64(3)}); err != nil {
			t.Fatal(err)
		}
	}
	var kept []Object
	inserted := 0
	for _, o := range got {
		if o.Str(3) == "late" {
			inserted++
			continue
		}
		kept = append(kept, o)
	}
	if !reflect.DeepEqual(rowValues(kept), rowValues(want)) {
		t.Fatalf("the resumed scan returned %d of the %d objects stored before it", len(kept), len(want))
	}
	if inserted != late {
		t.Fatalf("the scan saw %d late inserts, want the %d made while it was behind their key", inserted, late)
	}
	if steps := len(want) / 37; late == 0 || late == 2*steps {
		t.Fatalf("%d of %d in-range inserts were ahead of the scan; the test needs both kinds", late, 2*steps)
	}
	for i := 1; i < len(got); i++ {
		a, b := Key(got[i-1].Values()[:3]), Key(got[i].Values()[:3])
		if CompareKeys(a, b) > 0 {
			t.Fatalf("row %d out of order: %v after %v", i, b, a)
		}
	}
}

// resumeAcrossRepackAndSplit scans 100 rows of one job and rank, and
// resumes twice. Before the first resume, a row that sorts before the scan
// lowers the rank base of the leaf holding the scan's last key by 2^40,
// repacking the leaf in place at a wider stride; before the second, 300
// rows that sort just past the scan's last key split that leaf. The scan
// returns every row past its resume points, the 300 included, in order,
// and not the row behind it.
func resumeAcrossRepackAndSplit(t *testing.T) {
	c := newTestContainer(t)
	var early, late []Object
	for i := range 100 {
		early = append(early, NewObject(int64(1), int64(0), float64(i), "early", int64(i)))
		if err := c.Insert("darshan_event", early[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 300 {
		late = append(late, NewObject(int64(1), int64(0), 59+float64(i+1)/1000, "late", int64(i)))
	}
	want := slices.Concat(early[:60], late, early[60:])
	tree := c.Index("job_rank_time").tree
	var got []Object
	var last []byte
	read := func(cur Cursor, n int) {
		for ; n > 0 && cur.Next(); n-- {
			got = append(got, cur.Object())
			last = cur.AppendKey(last[:0])
		}
	}
	cur, err := c.Cursor("job_rank_time", Key{int64(1)}, Key{int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	read(cur, 40)
	leaf := tree.seek(last, false).node
	stride, next := leaf.stride, leaf.next
	if err := c.Insert("darshan_event", NewObject(int64(1), int64(-1)<<40, 0.0, "behind", int64(0))); err != nil {
		t.Fatal(err)
	}
	if tree.seek(last, false).node != leaf || leaf.stride <= stride || leaf.next != next {
		t.Fatalf("the insert left the resume key's leaf at stride %d (was %d); want it repacked wider in place", leaf.stride, stride)
	}
	if cur, err = c.CursorAfter("job_rank_time", last, Key{int64(2)}); err != nil {
		t.Fatal(err)
	}
	read(cur, 20)
	for _, o := range late {
		if err := c.Insert("darshan_event", o); err != nil {
			t.Fatal(err)
		}
	}
	if leaf.next == next {
		t.Fatal("300 inserts left the resume key's leaf whole; want it split")
	}
	if cur, err = c.CursorAfter("job_rank_time", last, Key{int64(2)}); err != nil {
		t.Fatal(err)
	}
	read(cur, len(want))
	if !reflect.DeepEqual(rowValues(got), rowValues(want)) {
		t.Fatalf("across a repack and a split the scan returned %d rows, want the %d stored past its resume points", len(got), len(want))
	}
}

// TestCursorRejectsMistypedBounds: a bound element of another type than
// the attribute it lines up with is an error from every entry point;
// unchecked, the first one panics inside the B+tree seek.
func TestCursorRejectsMistypedBounds(t *testing.T) {
	c := newTestContainer(t)
	fillEvents(t, c, 50, 4)
	if _, err := c.AddIndex(IndexSpec{Name: "time_job_rank", Schema: "darshan_event", Attrs: []string{"timestamp", "job_id", "rank"}}); err != nil {
		t.Fatal(err)
	}
	for _, b := range []struct {
		index    string
		from, to Key
	}{
		{"time_job_rank", Key{int64(3)}, Key{int64(4)}},
		{"time_job_rank", nil, Key{1.5, "x"}},
		{"job_rank_time", Key{int64(1), uint64(2)}, nil},
		{"job_rank_time", Key{int64(1), int64(2), 3.0, uint64(9)}, nil},
	} {
		if _, err := c.Cursor(b.index, b.from, b.to); err == nil {
			t.Errorf("Cursor(%s, %v, %v) accepted a mistyped bound", b.index, b.from, b.to)
		}
		if _, err := c.Range(b.index, b.from, b.to); err == nil {
			t.Errorf("Range(%s, %v, %v) accepted a mistyped bound", b.index, b.from, b.to)
		}
		if b.from != nil {
			if err := c.Iter(b.index, b.from, func(Object) bool { return true }); err == nil {
				t.Errorf("Iter(%s, %v) accepted a mistyped bound", b.index, b.from)
			}
		}
	}
	if _, err := c.Cursor("nope", nil, nil); err == nil {
		t.Error("Cursor opened an unknown index")
	}
	if objs, err := c.Range("time_job_rank", Key{1.5}, Key{20.5, int64(2)}); err != nil || len(objs) == 0 {
		t.Fatalf("well-typed time range: %d objects, %v", len(objs), err)
	}
}

// TestCursorScanAllocatesNothing: stepping a cursor and checking its
// bound allocate nothing; Range's only allocations are its result slice.
func TestCursorScanAllocatesNothing(t *testing.T) {
	c := newTestContainer(t)
	fillEvents(t, c, 5000, 5)
	key := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(5, func() {
		cur, err := c.Cursor("job_rank_time", Key{int64(1)}, Key{int64(3)})
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
			key = cur.AppendKey(key[:0])
			_, _ = cur.Object(), cur.Origin()
		}
	})
	if allocs != 0 {
		t.Fatalf("a bounded scan allocated %.0f times", allocs)
	}
}
