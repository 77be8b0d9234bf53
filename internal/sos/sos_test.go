package sos

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

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
	err := c.Insert("darshan_event", NewObject(int64(1), int64(2), 3.0, "open", int64(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Insert("darshan_event", NewObject(int64(1), "bad", 3.0, "open", int64(0))); err == nil {
		t.Fatal("type mismatch accepted")
	}
	if err := c.Insert("darshan_event", NewObject(int64(1))); err == nil {
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
		obj := NewObject(
			int64(r.Intn(5)),  // job_id
			int64(r.Intn(32)), // rank
			r.Float64()*1000,  // timestamp
			"write",
			int64(i),
		)
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	var keys []Key
	if err := c.Iter("job_rank_time", nil, func(o Object) bool {
		keys = append(keys, Key(o.Values()[:3]))
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
				obj := NewObject(job, rank, float64(k), "write", int64(k))
				if err := c.Insert("darshan_event", obj); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// "search the data by a specific rank within a specific job over time"
	var got []float64
	err := c.Iter("job_rank_time", Key{int64(2), int64(1)}, func(o Object) bool {
		if o.Int(0) != 2 || o.Int(1) != 1 {
			return false
		}
		got = append(got, o.Float(2))
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
		obj := NewObject(int64(i%5), int64(i%7), float64(i), "read", int64(i))
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
		if o.Int(0) != 2 {
			t.Fatalf("object outside range: %v", o)
		}
	}
}

func TestDuplicateKeysPreserved(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 100; i++ {
		obj := NewObject(int64(1), int64(1), 5.0, "write", int64(i))
		if err := c.Insert("darshan_event", obj); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	last := int64(-1)
	c.Iter("job_rank_time", nil, func(o Object) bool {
		count++
		// Equal keys must preserve insertion order (oid tiebreak).
		if v := o.Int(4); v <= last {
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
		c.Insert("darshan_event", NewObject(int64(1), int64(i), 0.0, "open", int64(i)))
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
		c.Insert("darshan_event", NewObject(int64(i), int64(0), float64(i), "open", int64(i)))
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
	if _, err := c.AddIndex(IndexSpec{Name: "job_op", Schema: "darshan_event", Attrs: []string{"job_id", "op"}}); err == nil || !strings.Contains(err.Error(), `"op"`) {
		t.Fatalf("a string index attribute: %v, want an error naming it", err)
	}
	many := make([]string, maxIndexAttrs+1)
	for i := range many {
		many[i] = "job_id"
	}
	if _, err := c.AddIndex(IndexSpec{Name: "wide", Schema: "darshan_event", Attrs: many}); err == nil {
		t.Fatal("an index key wider than a node's quarter accepted")
	}
	if c.Index("job_op") != nil || c.Index("wide") != nil {
		t.Fatal("a refused index was registered")
	}
}

// skipTo makes the slab hold n rows, n a multiple of its page's row count,
// without storing them: the pages before row n stay unallocated, so only
// rows from n on may be read.
func (s *slab) skipTo(n int) {
	s.pages = make([]atomic.Pointer[page], n>>s.shift)
	s.n = n
}

// TestSchemaFullGuard: a schema takes rows up to maxRows and refuses the
// next, from Insert, Check and a WAL replay, so a row's 4-byte position
// suffix never wraps onto another row's. The rows next to the limit are
// indexed at their own positions, in position order.
func TestSchemaFullGuard(t *testing.T) {
	c := NewContainer("full")
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
	s := c.slabs["s"]
	start := maxRows &^ (1<<s.shift - 1) // the first row of the last page
	s.skipTo(start)
	for s.n < maxRows {
		if err := c.Insert("s", NewObject(int64(7))); err != nil {
			t.Fatalf("row %d of %d refused: %v", s.n, maxRows, err)
		}
	}
	row := NewObject(int64(7))
	for name, err := range map[string]error{"Insert": c.Insert("s", row), "Check": c.Check("s", row)} {
		if err == nil || !strings.Contains(err.Error(), "full") {
			t.Fatalf("%s past %d rows: %v, want the schema full", name, maxRows, err)
		}
	}
	log := NewMemWAL()
	if err := NewWAL(log).Append("s", row, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := replayWAL(log, func(schema string, o Object, origin uint64) error {
		return c.InsertOrigin(schema, o, origin)
	}); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("a replayed row past %d rows: %v, want the schema full", maxRows, err)
	}
	cur, err := c.Cursor("byk", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, prev := 0, start-1
	for cur.Next() {
		if pos := cur.it.pos(); pos != prev+1 || cur.Object().Int(0) != 7 {
			t.Fatalf("entry %d is row %d, want row %d", n, pos, prev+1)
		}
		prev++
		n++
	}
	if n != maxRows-start || prev != maxRows-1 {
		t.Fatalf("the index holds %d rows up to %d, want %d up to %d", n, prev, maxRows-start, maxRows-1)
	}
}

// TestIndexBytesPerRow measures what the three darshan indices cost per
// row, as live heap, on 1M rows shaped like one shard's share of the
// benchmark's traffic: every 4th event of a stream over 16 jobs x 64
// ranks, each event of a random job and rank, with rising timestamps. The
// rows have the darshan schema's 24 attributes. The trees (time_job_rank
// is read from the pages and has none), measured as the heap that
// dropping them frees, must cost at most 18 B/row; the log gives each
// index's share, freed one at a time.
func TestIndexBytesPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 1M-row heap")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20)) // a lower peak heap
	attrs := []AttrSpec{{Name: "job_id", Type: TypeInt64}, {Name: "rank", Type: TypeInt64}, {Name: "timestamp", Type: TypeFloat64}}
	for i := len(attrs); i < 24; i++ {
		attrs = append(attrs, AttrSpec{Name: fmt.Sprintf("a%d", i), Type: TypeInt64})
	}
	sch, err := NewSchema("ev", attrs)
	if err != nil {
		t.Fatal(err)
	}
	before := liveObjectBytes()
	c := NewContainer("bytes")
	if err := c.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	specs := []IndexSpec{
		{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}},
		{Name: "job_time_rank", Schema: "ev", Attrs: []string{"job_id", "timestamp", "rank"}},
		{Name: "time_job_rank", Schema: "ev", Attrs: []string{"timestamp", "job_id", "rank"}},
	}
	for _, spec := range specs {
		if _, err := c.AddIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	const rows = 1000000
	b := NewRowBuilder(sch)
	r := rng.New(42)
	for g := 0; c.Count("ev") < rows; g++ {
		job, rank := r.Intn(16), r.Intn(64)
		if g%4 != 0 {
			continue
		}
		b.Begin()
		b.SetInt(0, int64(job))
		b.SetInt(1, int64(rank))
		b.SetFloat(2, 1.6e9+float64(g)/1e4)
		if err := c.Insert("ev", b.Row()); err != nil {
			t.Fatal(err)
		}
	}
	total := liveObjectBytes() - before
	c.bySchema = nil
	live := total
	for i := len(specs) - 1; i >= 0; i-- { // time_job_rank holds job_rank_time's tree until it goes
		spec := specs[i]
		delete(c.indices, spec.Name)
		now := liveObjectBytes() - before
		t.Logf("%s: %.1f B/row", spec.Name, (float64(live)-float64(now))/rows)
		live = now
	}
	runtime.KeepAlive(c)
	trees := int(total) - int(live)
	perRow := float64(trees) / rows
	t.Logf("%d rows: %d B live, pages and dictionary %.1f B/row, trees %.1f B/row", rows, total, float64(live)/rows, perRow)
	if perRow > 18 || trees <= 0 {
		t.Fatalf("the trees cost %.1f B/row; want at most 18", perRow)
	}
}

// liveObjectBytes is the heap occupied by objects after a collection.
func liveObjectBytes() uint64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
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

func TestSnapshotRestore(t *testing.T) {
	c := newTestContainer(t)
	for i := 0; i < 500; i++ {
		obj := NewObject(int64(i%3), int64(i%8), float64(i)*0.5, "write", int64(i))
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
			if o.Int(0) != 1 {
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
		if !reflect.DeepEqual(a[i].Values(), b[i].Values()) {
			t.Fatalf("object %d differs: %v vs %v", i, a[i], b[i])
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
		c.Insert("ev", NewObject(int64(i%10), int64(i%64), r.Float64()))
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
		c.Insert("ev", NewObject(int64(i%10), int64(i%64), r.Float64()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		c.Iter("jrt", Key{int64(i % 10)}, func(o Object) bool {
			if o.Int(0) != int64(i%10) {
				return false
			}
			n++
			return true
		})
	}
}

// TestRestoreSharesStrings: a restored container holds each distinct
// string once, like the container it was snapshotted from, so its live
// heap is within 10% of that container's.
func TestRestoreSharesStrings(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 100k-row heap")
	}
	const rows = 100000
	ops := []string{"open", "read", "write", "close"}
	ingest := func() *Container {
		c := NewContainer("heap")
		if err := c.AddSchema(boxedSchema(t)); err != nil {
			t.Fatal(err)
		}
		b := NewRowBuilder(c.Schema("ev"))
		for k := 0; k < rows; k++ {
			b.Begin()
			b.SetInt(0, int64(k))
			b.SetUint(1, uint64(k%64))
			b.SetFloat(2, 1.6e9+float64(k)/8)
			b.SetStr(3, fmt.Sprintf("/lscratch/out.%03d.dat", k%500), nil, 0)
			b.SetStr(4, ops[k%len(ops)], nil, 0)
			if err := c.Insert("ev", b.Row()); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	var snap bytes.Buffer
	direct, directHeap := liveHeap(t, func() any { return ingest() })
	if err := direct.(*Container).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	restored, restoredHeap := liveHeap(t, func() any {
		c, err := Restore(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	})
	if got := restored.(*Container).Count("ev"); got != rows {
		t.Fatalf("restored %d of %d rows", got, rows)
	}
	runtime.KeepAlive(direct) // live through both measurements, like snap
	runtime.KeepAlive(&snap)
	ratio := float64(restoredHeap) / float64(directHeap)
	t.Logf("live heap: ingested %d B, restored %d B (%.3f)", directHeap, restoredHeap, ratio)
	if ratio > 1.1 {
		t.Fatalf("the restored container's live heap is %.2fx the ingested one's", ratio)
	}
}

// liveHeap builds a value and returns it with the live heap it added, as
// runtime.MemStats reports after a collection.
func liveHeap(t *testing.T, build func() any) (any, uint64) {
	t.Helper()
	before := heapAfterGC()
	v := build()
	after := heapAfterGC()
	runtime.KeepAlive(v)
	if after < before {
		t.Fatalf("the live heap shrank while building: %d -> %d", before, after)
	}
	return v, after - before
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestRowBuilderRewind: Rewind hands the rows' words back — the next row
// is built where the first one was — and forgets the caller's table, so a
// table that starts over in place maps its ids afresh.
func TestRowBuilderRewind(t *testing.T) {
	s, err := NewSchema("t", []AttrSpec{{Name: "s", Type: TypeString}, {Name: "n", Type: TypeInt64}})
	if err != nil {
		t.Fatal(err)
	}
	b := NewRowBuilder(s)
	tab := []string{"a", "b"}
	b.Begin()
	b.SetStr(0, tab[1], tab, 1)
	b.SetInt(1, 7)
	first := b.Row()
	if first.Str(0) != "b" || first.Int(1) != 7 {
		t.Fatalf("row %v, want [b 7]", first)
	}
	b.Rewind()
	tab[0], tab[1] = "c", "d"
	b.Begin()
	b.SetStr(0, tab[1], tab, 1)
	if second := b.Row(); second.Str(0) != "d" || second.Int(1) != 0 {
		t.Fatalf("row after Rewind %v, want [d 0]", second)
	}
	if first.Str(0) != "d" {
		t.Fatalf("the rewound row reads %v: its words were not reused", first)
	}
}
