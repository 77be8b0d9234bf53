package sos

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"darshanldms/internal/rng"
)

var update = flag.Bool("update", false, "rewrite the golden snapshots and log of sealed rows in testdata")

// sealedAttrs is a 24-attribute schema, so a page holds 256 rows as a
// darshan page does, whose columns reach every packed width: constant
// ones (0 bytes), small ones, and ones that span their whole type.
var sealedAttrs = []AttrSpec{
	{Name: "job_id", Type: TypeInt64},
	{Name: "rank", Type: TypeInt64},
	{Name: "timestamp", Type: TypeFloat64},
	{Name: "op", Type: TypeString},
	{Name: "constant", Type: TypeInt64},
	{Name: "extremes", Type: TypeInt64},   // MinInt64 and MaxInt64
	{Name: "minus_one", Type: TypeInt64},  // -1 beside small positives
	{Name: "umax", Type: TypeUint64},      // MaxUint64 beside small values
	{Name: "ubig", Type: TypeUint64},      // 1<<63 and up
	{Name: "specials", Type: TypeFloat64}, // NaN payloads, -0, ±Inf
	{Name: "dur", Type: TypeFloat64},
	{Name: "file", Type: TypeString},
	{Name: "empty", Type: TypeString},
	{Name: "off", Type: TypeInt64},
	{Name: "len", Type: TypeInt64},
	{Name: "zero_f", Type: TypeFloat64},
	{Name: "neg_zero", Type: TypeFloat64},
	{Name: "small_u", Type: TypeUint64},
	{Name: "a18", Type: TypeInt64},
	{Name: "a19", Type: TypeInt64},
	{Name: "a20", Type: TypeInt64},
	{Name: "a21", Type: TypeInt64},
	{Name: "a22", Type: TypeInt64},
	{Name: "a23", Type: TypeInt64},
}

var sealedSpecials = []float64{
	math.NaN(), math.Float64frombits(0x7FF8000000000001), math.Float64frombits(0xFFF8000000000001),
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25, math.SmallestNonzeroFloat64,
}

// sealedRows returns n rows of sealedAttrs: row i's values are a function
// of i and a seeded stream, so every run builds the same rows.
func sealedRows(n int) [][]any {
	r := rng.New(45)
	ops := []string{"open", "write", "read", "close"}
	rows := make([][]any, n)
	for i := range rows {
		extremes := int64(math.MinInt64)
		if i%3 == 1 {
			extremes = math.MaxInt64
		} else if i%3 == 2 {
			extremes = int64(r.Intn(100)) - 50
		}
		umax := uint64(r.Intn(8))
		if i%5 == 0 {
			umax = math.MaxUint64
		}
		rows[i] = []any{
			int64(r.Intn(4) + 1), int64(r.Intn(64)), 1.6e9 + float64(i)/1e3, ops[r.Intn(len(ops))],
			int64(7), extremes, int64(r.Intn(4)) - 1, umax, 1<<63 + uint64(r.Intn(1<<20)),
			sealedSpecials[i%len(sealedSpecials)], float64(r.Intn(1000)) / 1e6, fmt.Sprintf("/scratch/f%d", r.Intn(9)), "",
			int64(r.Intn(1 << 22)), int64(r.Intn(1 << 16)), 0.0, math.Copysign(0, -1), uint64(r.Intn(3)),
			int64(i), int64(-i), int64(i) << 40, int64(r.Intn(2)), int64(math.MaxInt64 - i), int64(math.MinInt64 + i),
		}
	}
	return rows
}

// sealedContainer stores rows under one index with origins, the shape of
// a replicated shard.
func sealedContainer(t testing.TB, rows [][]any) *Container {
	t.Helper()
	c := NewContainer("sealed")
	sch, err := NewSchema("ev", sealedAttrs)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	for i, vals := range rows {
		if err := c.InsertOrigin("ev", NewObject(vals...), uint64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// storedRows returns views of every stored row of schema, in slab order.
func storedRows(c *Container, schema string) []Object {
	s := c.slabs[schema].view()
	out := make([]Object, s.n)
	for pos := range out {
		out[pos] = s.object(pos, c.dict.strs)
	}
	return out
}

// gunzipSnapshot returns a snapshot's magic followed by its uncompressed
// body, which does not depend on the compressor's version or level.
func gunzipSnapshot(t *testing.T, snap []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(snap[len(snapMagic):]))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return append(snap[:len(snapMagic):len(snapMagic)], body...)
}

// originAt returns the origin of row pos of schema, 0 when none is stamped.
func originAt(c *Container, schema string, pos int) uint64 {
	if o := c.origins[schema]; pos < len(o) {
		return o[pos]
	}
	return 0
}

// sameContents fails unless got holds what want does: the name, next
// object id, schemas and indices, every row at its slab position bit for
// bit with its string values and origin, and, over every index, the same
// tree keys, rows and origins in order, also from a cursor resumed after
// each of a sample of keys.
func sameContents(t *testing.T, got, want *Container) {
	t.Helper()
	if got.Name != want.Name || got.nextOID != want.nextOID || !slices.Equal(got.Schemas(), want.Schemas()) || !slices.Equal(got.Indices(), want.Indices()) {
		t.Fatalf("container %q (next id %d, schemas %v, indices %v), want %q (%d, %v, %v)",
			got.Name, got.nextOID, got.Schemas(), got.Indices(), want.Name, want.nextOID, want.Schemas(), want.Indices())
	}
	for _, name := range want.Schemas() {
		g, w := storedRows(got, name), storedRows(want, name)
		if len(g) != len(w) || got.Count(name) != want.Count(name) {
			t.Fatalf("schema %s: %d rows, want %d", name, len(g), len(w))
		}
		for pos := range w {
			if !sameObject(g[pos], w[pos]) || g[pos].String() != w[pos].String() || originAt(got, name, pos) != originAt(want, name, pos) {
				t.Fatalf("schema %s row %d: %v origin %d, want %v origin %d", name, pos, g[pos], originAt(got, name, pos), w[pos], originAt(want, name, pos))
			}
		}
	}
	for _, name := range want.Indices() {
		var keys [][]byte
		gc, _ := got.Cursor(name, nil, nil)
		wc, _ := want.Cursor(name, nil, nil)
		for n := 0; ; n++ {
			gn, wn := gc.Next(), wc.Next()
			if gn != wn {
				t.Fatalf("index %s: entry %d exists in one container only", name, n)
			}
			if !gn {
				break
			}
			k := wc.AppendKey(nil)
			if !bytes.Equal(gc.AppendKey(nil), k) || gc.Origin() != wc.Origin() || !sameObject(gc.Object(), wc.Object()) {
				t.Fatalf("index %s entry %d: %v origin %d, want %v origin %d", name, n, gc.Object(), gc.Origin(), wc.Object(), wc.Origin())
			}
			keys = append(keys, k)
		}
		for k := 0; k < len(keys); k += len(keys)/7 + 1 {
			cur, err := got.CursorAfter(name, keys[k], nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range keys[k+1:] {
				if !cur.Next() || !bytes.Equal(cur.AppendKey(nil), want) {
					t.Fatalf("index %s resumed after entry %d: not the entries after it", name, k)
				}
			}
			if cur.Next() {
				t.Fatalf("index %s resumed after entry %d: an entry past the last", name, k)
			}
		}
	}
}

// restoreFile restores the snapshot at path.
func restoreFile(t *testing.T, path string) *Container {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Restore(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return c
}

// sealedRef stores rows in the boxed reference as sealedContainer stores
// them, stamping origins when withOrigins.
func sealedRef(t *testing.T, rows [][]any, withOrigins bool) *refContainer {
	t.Helper()
	ref := newRefContainer("sealed")
	sch, _ := NewSchema("ev", sealedAttrs)
	if err := ref.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	for i, v := range rows {
		var origin uint64
		if withOrigins {
			origin = uint64(i + 1)
		}
		ref.InsertChecked("ev", refObject(v), origin)
	}
	return ref
}

// TestSealedGolden holds a container whose full pages are sealed (700
// rows: two full pages and part of a third) to frozen files:
//   - sealed.snap3, its snapshot: the bytes it writes, which restore to
//     the same contents and which the restored container writes again;
//   - sealed.snap (SNAP2, written before pages were sealed) and
//     sealed-v1.snap (SNAP1, the same rows without origins), the two
//     row-by-row formats: they restore to the same contents, and the boxed
//     reference writer still writes them;
//   - sealed.wal, the log of its stored rows.
func TestSealedGolden(t *testing.T) {
	rows := sealedRows(700)
	c := sealedContainer(t, rows)
	var snap bytes.Buffer
	if err := c.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	log := NewMemWAL()
	stored := storedRows(c, "ev")
	origins := make([]uint64, len(stored))
	for i := range origins {
		origins[i] = uint64(i + 1)
	}
	if err := NewWAL(log).AppendBatch("ev", stored, origins, 9); err != nil {
		t.Fatal(err)
	}
	snapPath, walPath := filepath.Join("testdata", "sealed.snap3"), filepath.Join("testdata", "sealed.wal")
	if *update {
		if err := os.WriteFile(snapPath, snap.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(walPath, readLog(t, log), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantSnap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	wantWAL, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gunzipSnapshot(t, snap.Bytes()), gunzipSnapshot(t, wantSnap)) {
		t.Error("the snapshot differs from testdata/sealed.snap3")
	}
	golden := restoreFile(t, snapPath)
	sameContents(t, golden, c)
	var again bytes.Buffer
	if err := golden.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gunzipSnapshot(t, again.Bytes()), gunzipSnapshot(t, wantSnap)) {
		t.Error("testdata/sealed.snap3, restored, snapshots to other bytes")
	}
	if !bytes.Equal(readLog(t, log), wantWAL) {
		t.Error("the log of the stored rows differs from testdata/sealed.wal")
	}

	plain := NewContainer("sealed")
	if err := plain.AddSchema(c.Schema("ev")); err != nil {
		t.Fatal(err)
	}
	if _, err := plain.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	for _, vals := range rows {
		if err := plain.Insert("ev", NewObject(vals...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, old := range []struct {
		file, magic string
		want        *Container
		ref         *refContainer
	}{
		{"sealed.snap", snapMagic2, c, sealedRef(t, rows, true)},
		{"sealed-v1.snap", snapMagic, plain, sealedRef(t, rows, false)},
	} {
		path := filepath.Join("testdata", old.file)
		var refSnap bytes.Buffer
		if err := old.ref.Snapshot(&refSnap); err != nil {
			t.Fatal(err)
		}
		frozen, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(frozen[:len(old.magic)]) != old.magic || !bytes.Equal(gunzipSnapshot(t, refSnap.Bytes()), gunzipSnapshot(t, frozen)) {
			t.Errorf("the reference writer no longer writes testdata/%s", old.file)
		}
		sameContents(t, restoreFile(t, path), old.want)
	}
}

// smallPages makes each page of c's schemas hold 1<<shift rows, so that a
// few rows cross seals. It must run before the first insert.
func smallPages(c *Container, shift uint) {
	for _, s := range c.slabs {
		s.shift = shift
	}
}

// sameObject reports whether two rows hold the same values bit for bit.
func sameObject(a, b Object) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Type(i) != b.Type(i) || !sameValue(a.Value(i), b.Value(i)) {
			return false
		}
	}
	return true
}

// TestSealedRowsMatchOpen reads every row of two sealed pages and an open
// one back through each getter, Value, a log record and a snapshot, and
// requires what the row built from the same values gives: the snapshot,
// and the boxed reference's snapshot of the same rows, restore to the
// container's contents. The columns
// reach every packed width, including 0 and 8 bytes.
func TestSealedRowsMatchOpen(t *testing.T) {
	vals := sealedRows(700)
	c := sealedContainer(t, vals)
	s := c.slabs["ev"]
	widths := map[uint64]bool{}
	for p := 0; p < 2; p++ {
		pg := s.pages[p].Load()
		if pg.cols == nil {
			t.Fatalf("full page %d is not sealed", p)
		}
		for _, col := range pg.cols {
			widths[col.mask] = true
		}
	}
	if !widths[0] || !widths[math.MaxUint64] {
		t.Fatalf("the sealed pages' attributes miss a width of 0 or 8 bytes: masks %v", widths)
	}
	if s.pages[2].Load().cols != nil {
		t.Fatal("the page still filling is sealed")
	}
	for pos, got := range storedRows(c, "ev") {
		want := NewObject(vals[pos]...)
		if !sameObject(got, want) {
			t.Fatalf("row %d reads %v, want %v", pos, got, want)
		}
		for i := 0; i < want.Len(); i++ {
			var same bool
			switch want.Type(i) {
			case TypeInt64:
				same = got.Int(i) == want.Int(i)
			case TypeUint64:
				same = got.Uint(i) == want.Uint(i)
			case TypeFloat64:
				same = math.Float64bits(got.Float(i)) == math.Float64bits(want.Float(i))
			case TypeString:
				same = got.Str(i) == want.Str(i)
			}
			if !same {
				t.Fatalf("row %d attribute %s: the getter reads %v, want %v", pos, sealedAttrs[i].Name, got.Value(i), want.Value(i))
			}
		}
		sealedLog, openLog := NewMemWAL(), NewMemWAL()
		if err := NewWAL(sealedLog).Append("ev", got, uint64(pos+1)); err != nil {
			t.Fatal(err)
		}
		if err := NewWAL(openLog).Append("ev", want, uint64(pos+1)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readLog(t, sealedLog), readLog(t, openLog)) {
			t.Fatalf("row %d logs to other bytes than the row it was built from", pos)
		}
	}
	var snap, refSnap bytes.Buffer
	if err := c.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if err := sealedRef(t, vals, true).Snapshot(&refSnap); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&snap)
	if err != nil {
		t.Fatal(err)
	}
	fromRef, err := Restore(&refSnap)
	if err != nil {
		t.Fatal(err)
	}
	sameContents(t, restored, c)
	sameContents(t, fromRef, c)
	for pos, o := range storedRows(restored, "ev") {
		if !sameObject(o, NewObject(vals[pos]...)) {
			t.Fatalf("restored row %d reads %v", pos, o)
		}
	}
}

// TestViewsReadSameRowsAcrossSeals: a cursor's rows, a frozen snapshot and
// row views, all taken while a page is open, read the same rows while
// inserts fill and seal that page and several after it, and after. Run it
// under -race: the seal swaps a page the readers are reading.
func TestViewsReadSameRowsAcrossSeals(t *testing.T) {
	vals := sealedRows(2000)
	c := sealedContainer(t, vals[:300]) // page 0 sealed, page 1 filling
	cur, err := c.Cursor("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var positions []int
	for cur.Next() {
		positions = append(positions, cur.it.pos())
	}
	views := storedRows(c, "ev")
	frozen := c.Freeze()
	var before bytes.Buffer
	if err := frozen.Snapshot(&before); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		for _, pos := range positions {
			if o := cur.rows.object(pos, cur.strs); !sameObject(o, NewObject(vals[pos]...)) {
				t.Errorf("%s: the cursor reads row %d as %v", when, pos, o)
				return
			}
		}
		for pos, o := range views {
			if !sameObject(o, NewObject(vals[pos]...)) {
				t.Errorf("%s: the view of row %d reads %v", when, pos, o)
				return
			}
		}
		var snap bytes.Buffer
		if err := frozen.Snapshot(&snap); err != nil {
			t.Error(err)
		} else if !bytes.Equal(gunzipSnapshot(t, snap.Bytes()), gunzipSnapshot(t, before.Bytes())) {
			t.Errorf("%s: the frozen snapshot changed", when)
		}
	}
	done := make(chan error)
	go func() {
		for i := 300; i < len(vals); i++ {
			if err := c.InsertOrigin("ev", NewObject(vals[i]...), uint64(i+1)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	check("during the seals")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s := c.slabs["ev"]; s.pages[1].Load().cols == nil || len(s.pages) != 8 {
		t.Fatalf("after 2000 rows: %d pages, page 1 sealed %v", len(s.pages), s.pages[1].Load().cols != nil)
	}
	check("after the seals")
}

// TestSealedBytesPerRow measures what stored rows cost, as live heap, on
// 1M rows shaped like one shard's share of the benchmark's traffic (every
// 4th event of its generator: 16 jobs x 64 ranks, four executables, 16
// files, a sequential offset, rising timestamps, random durations and
// max_byte). A word-addressed page costs 192 B/row; sealed pages must
// cost at most 48.
func TestSealedBytesPerRow(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a 1M-row heap")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	const rows = 1000000
	before := liveObjectBytes()
	c := benchShard(t, rows)
	total := liveObjectBytes() - before
	runtime.KeepAlive(c)
	perRow := float64(total) / rows
	t.Logf("%d rows in %d pages: %.1f B/row live (pages, directory and dictionary)", rows, len(c.slabs["ev"].pages), perRow)
	widths := make([]float64, len(c.Schema("ev").Attrs))
	s := c.slabs["ev"]
	for p := 0; p < len(s.pages)-1; p++ {
		for j, col := range s.pages[p].Load().cols {
			widths[j] += float64(bits.OnesCount64(col.mask)/8) / float64(len(s.pages)-1)
		}
	}
	for j, a := range c.Schema("ev").Attrs {
		t.Logf("%-12s %.2f B/row", a.Name, widths[j])
	}
	if perRow > 48 {
		t.Fatalf("stored rows cost %.1f B/row; want at most 48", perRow)
	}
}

// BenchmarkSeal times sealing one full 256-row page of sealedRows, per
// row.
func BenchmarkSeal(b *testing.B) {
	c := sealedContainer(b, sealedRows(256))
	s := c.slabs["ev"]
	words := slices.Clone(s.open)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(s.open, words) // the seal clears the words it frees
		b.StartTimer()
		s.seal()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/256, "ns/row")
}
