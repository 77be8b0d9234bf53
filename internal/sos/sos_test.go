package sos

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"sort"
	"testing"
	"testing/quick"

	"darshanldms/internal/rng"
)

func eventSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("darshan_event", []AttrSpec{
		{Name: "job_id", Type: TypeInt64},
		{Name: "rank", Type: TypeInt64},
		{Name: "timestamp", Type: TypeFloat64},
		{Name: "op", Type: TypeString},
		{Name: "len", Type: TypeInt64},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newTestContainer(t *testing.T) *Container {
	t.Helper()
	c := NewContainer("darshan_data")
	if err := c.AddSchema(eventSchema(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "darshan_event", Attrs: []string{"job_id", "rank", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewSchema("s", []AttrSpec{{Name: "a", Type: TypeInt64}, {Name: "a", Type: TypeString}}); err == nil {
		t.Fatal("duplicate attr accepted")
	}
}

func TestInsertTypeChecking(t *testing.T) {
	c := newTestContainer(t)
	err := c.Insert("darshan_event", Object{int64(1), int64(2), 3.0, "open", int64(0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("darshan_event", Object{int64(1), "bad", 3.0, "open", int64(0)}); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := c.Insert("darshan_event", Object{int64(1)}); err == nil {
		t.Fatal("arity mismatch accepted")
	}
	if err := c.Insert("nope", Object{}); err == nil {
		t.Fatal("unknown schema accepted")
	}
}

func TestIndexOrdering(t *testing.T) {
	c := newTestContainer(t)
	r := rng.New(5)
	const n = 2000
	for i := 0; i < n; i++ {
		obj := Object{
			int64(r.Intn(5)),   // job_id
			int64(r.Intn(32)),  // rank
			r.Float64() * 1000, // timestamp
			"write",
			int64(i),
		}
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	var keys []Key
	if err := c.Iter("job_rank_time", nil, func(o Object) bool {
		keys = append(keys, Key{o[0], o[1], o[2]})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != n {
		t.Fatalf("iterated %d of %d", len(keys), n)
	}
	for i := 1; i < len(keys); i++ {
		if CompareKeys(keys[i-1], keys[i]) > 0 {
			t.Fatalf("index out of order at %d: %v > %v", i, keys[i-1], keys[i])
		}
	}
}

func TestPrefixSeek(t *testing.T) {
	c := newTestContainer(t)
	for job := int64(1); job <= 3; job++ {
		for rank := int64(0); rank < 4; rank++ {
			for k := 0; k < 5; k++ {
				obj := Object{job, rank, float64(k), "write", int64(k)}
				if err := c.Insert("darshan_event", obj); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// "search the data by a specific rank within a specific job over time"
	var got []float64
	err := c.Iter("job_rank_time", Key{int64(2), int64(1)}, func(o Object) bool {
		if o[0].(int64) != 2 || o[1].(int64) != 1 {
			return false
		}
		got = append(got, o[2].(float64))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %v", got)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("timestamps not ordered: %v", got)
	}
}

func TestRangeQuery(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 50; i++ {
		obj := Object{int64(i % 5), int64(i % 7), float64(i), "read", int64(i)}
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := c.Range("job_rank_time", Key{int64(2)}, Key{int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 10 { // i%5==2: 10 objects
		t.Fatalf("range returned %d", len(objs))
	}
	for _, o := range objs {
		if o[0].(int64) != 2 {
			t.Fatalf("object outside range: %v", o)
		}
	}
}

func TestDuplicateKeysPreserved(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 100; i++ {
		obj := Object{int64(1), int64(1), 5.0, "write", int64(i)}
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	last := int64(-1)
	c.Iter("job_rank_time", nil, func(o Object) bool {
		count++
		// Equal keys must preserve insertion order (oid tiebreak).
		if v := o[4].(int64); v <= last {
			t.Fatalf("insertion order lost: %d after %d", v, last)
		} else {
			last = v
		}
		return true
	})
	if count != 100 {
		t.Fatalf("count %d", count)
	}
}

func TestIterEarlyStop(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 20; i++ {
		c.Insert("darshan_event", Object{int64(1), int64(i), 0.0, "open", int64(i)})
	}
	seen := 0
	c.Iter("job_rank_time", nil, func(Object) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop seen %d", seen)
	}
}

func TestAddIndexBackfills(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 30; i++ {
		c.Insert("darshan_event", Object{int64(i), int64(0), float64(i), "open", int64(i)})
	}
	ix, err := c.AddIndex(IndexSpec{Name: "time_job", Schema: "darshan_event", Attrs: []string{"timestamp", "job_id"}})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Len() != 30 {
		t.Fatalf("backfilled %d", ix.Len())
	}
}

func TestAddIndexValidation(t *testing.T) {
	c := newTestContainer(t)
	if _, err := c.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "darshan_event", Attrs: []string{"job_id"}}); err == nil {
		t.Fatal("duplicate index accepted")
	}
	if _, err := c.AddIndex(IndexSpec{Name: "x", Schema: "nope", Attrs: []string{"a"}}); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := c.AddIndex(IndexSpec{Name: "y", Schema: "darshan_event", Attrs: []string{"nope"}}); err == nil {
		t.Fatal("unknown attribute accepted")
	}
}

func TestCompareKeysPrefix(t *testing.T) {
	a := Key{int64(1), int64(2)}
	b := Key{int64(1), int64(2), 3.5}
	if CompareKeys(a, b) != -1 || CompareKeys(b, a) != 1 {
		t.Fatal("prefix ordering wrong")
	}
	if CompareKeys(a, a) != 0 {
		t.Fatal("self-compare nonzero")
	}
}

func TestCompareKeysAllTypes(t *testing.T) {
	cases := []struct {
		a, b Key
		want int
	}{
		{Key{int64(1)}, Key{int64(2)}, -1},
		{Key{uint64(5)}, Key{uint64(3)}, 1},
		{Key{1.5}, Key{1.5}, 0},
		{Key{"a"}, Key{"b"}, -1},
	}
	for _, cse := range cases {
		if got := CompareKeys(cse.a, cse.b); got != cse.want {
			t.Fatalf("CompareKeys(%v,%v)=%d want %d", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestBTreeInsertSeekProperty(t *testing.T) {
	f := func(vals []int64) bool {
		tr := newBTree()
		for i, v := range vals {
			tr.insert(Key{v, uint64(i)}, objRef{pos: i})
		}
		// Full scan must be sorted and complete.
		it := tr.seek(nil)
		count := 0
		var prev Key
		for it.valid() {
			k, _ := it.entry()
			if prev != nil && CompareKeys(prev, k) > 0 {
				return false
			}
			prev = k
			count++
			it.next()
		}
		return count == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeSeekSemantics(t *testing.T) {
	tr := newBTree()
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.insert(Key{int64(i), uint64(i)}, objRef{pos: i})
	}
	// Seeking an odd key lands on the next even one.
	it := tr.seek(Key{int64(501)})
	if !it.valid() {
		t.Fatal("seek past data")
	}
	k, _ := it.entry()
	if k[0].(int64) != 502 {
		t.Fatalf("seek(501) found %v", k)
	}
	// Seeking beyond the maximum is invalid.
	if it := tr.seek(Key{int64(5000)}); it.valid() {
		t.Fatal("seek beyond max should be invalid")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 500; i++ {
		obj := Object{int64(i % 3), int64(i % 8), float64(i) * 0.5, "write", int64(i)}
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := c.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	c2, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Name != c.Name || c2.Count("darshan_event") != 500 {
		t.Fatalf("restore: %s %d", c2.Name, c2.Count("darshan_event"))
	}
	if len(c2.Indices()) != 1 || c2.Index("job_rank_time").Len() != 500 {
		t.Fatalf("indices not rebuilt: %v", c2.Indices())
	}
	// Order-sensitive equality of a prefix scan.
	collect := func(cc *Container) []Object {
		var out []Object
		cc.Iter("job_rank_time", Key{int64(1)}, func(o Object) bool {
			if o[0].(int64) != 1 {
				return false
			}
			out = append(out, o)
			return true
		})
		return out
	}
	a, b := collect(c), collect(c2)
	if len(a) != len(b) {
		t.Fatalf("scan lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("object %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := Restore(bytes.NewReader([]byte("garbage data here"))); err == nil {
		t.Fatal("expected error")
	}
}

// TestRestoreHostileCounts: a header that declares four billion objects,
// or an index over 2^60 attributes, and then ends must fail on the
// missing data — not on the memory the count asked for (FuzzRestore's
// worker died of both).
func TestRestoreHostileCounts(t *testing.T) {
	snapshot := func(tail func(e *snapEnc)) []byte {
		var snap bytes.Buffer
		snap.WriteString(snapMagic)
		zw := gzip.NewWriter(&snap)
		bw := bufio.NewWriter(zw)
		e := &snapEnc{w: bw}
		e.str("fz") // container name
		e.u64(1)    // next object id
		e.u64(1)    // one schema
		e.str("ev")
		e.u64(1) // one attribute
		e.str("job_id")
		e.u64(uint64(TypeInt64))
		tail(e)
		if e.err != nil || bw.Flush() != nil || zw.Close() != nil {
			t.Fatal("building the snapshot failed")
		}
		return snap.Bytes()
	}
	for name, snap := range map[string][]byte{
		"objects": snapshot(func(e *snapEnc) { e.u64(1 << 32) }),
		"index attrs": snapshot(func(e *snapEnc) {
			e.u64(0) // no objects
			e.u64(1) // one index
			e.str("j")
			e.str("ev")
			e.u64(1 << 60)
		}),
	} {
		if _, err := Restore(bytes.NewReader(snap)); err == nil {
			t.Errorf("%s: a snapshot cut off after a hostile count restored", name)
		}
	}
}

func BenchmarkInsertIndexed(b *testing.B) {
	c := NewContainer("bench")
	sch, _ := NewSchema("ev", []AttrSpec{
		{Name: "job_id", Type: TypeInt64},
		{Name: "rank", Type: TypeInt64},
		{Name: "timestamp", Type: TypeFloat64},
	})
	c.AddSchema(sch)
	c.AddIndex(IndexSpec{Name: "jrt", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}})
	r := rng.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert("ev", Object{int64(i % 10), int64(i % 64), r.Float64()})
	}
}

func BenchmarkPrefixScan(b *testing.B) {
	c := NewContainer("bench")
	sch, _ := NewSchema("ev", []AttrSpec{
		{Name: "job_id", Type: TypeInt64},
		{Name: "rank", Type: TypeInt64},
		{Name: "timestamp", Type: TypeFloat64},
	})
	c.AddSchema(sch)
	c.AddIndex(IndexSpec{Name: "jrt", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}})
	r := rng.New(1)
	for i := 0; i < 100000; i++ {
		c.Insert("ev", Object{int64(i % 10), int64(i % 64), r.Float64()})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		c.Iter("jrt", Key{int64(i % 10)}, func(o Object) bool {
			if o[0].(int64) != int64(i%10) {
				return false
			}
			n++
			return true
		})
	}
}
