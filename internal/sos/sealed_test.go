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

var update = flag.Bool("update", false, "rewrite the golden snapshot and log of sealed rows in testdata")

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
// body, which does not depend on the compressor's version.
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

// TestSealedGolden holds the snapshot of a container whose full pages are
// sealed, and the log of its stored rows, to bytes written when every
// page was still open words: 700 rows, two full pages and part of a third.
func TestSealedGolden(t *testing.T) {
	c := sealedContainer(t, sealedRows(700))
	var snap bytes.Buffer
	if err := c.Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	log := NewMemWAL()
	rows := storedRows(c, "ev")
	origins := make([]uint64, len(rows))
	for i := range origins {
		origins[i] = uint64(i + 1)
	}
	if err := NewWAL(log).AppendBatch("ev", rows, origins, 9); err != nil {
		t.Fatal(err)
	}
	snapPath, walPath := filepath.Join("testdata", "sealed.snap"), filepath.Join("testdata", "sealed.wal")
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
		t.Error("the snapshot differs from testdata/sealed.snap")
	}
	if !bytes.Equal(readLog(t, log), wantWAL) {
		t.Error("the log of the stored rows differs from testdata/sealed.wal")
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
// one back through each getter, Value, a log record and the snapshot, and
// requires what the row built from the same values gives. The columns
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
	ref := newRefContainer("sealed")
	sch, _ := NewSchema("ev", sealedAttrs)
	if err := ref.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.AddIndex(IndexSpec{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}}); err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		ref.InsertChecked("ev", refObject(v), uint64(i+1))
	}
	var got, want bytes.Buffer
	if err := c.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if err := ref.Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the sealed container snapshots to other bytes than the boxed reference")
	}
	restored, err := Restore(&got)
	if err != nil {
		t.Fatal(err)
	}
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
	attrs := []AttrSpec{
		{Name: "uid", Type: TypeInt64}, {Name: "exe", Type: TypeString}, {Name: "job_id", Type: TypeInt64},
		{Name: "rank", Type: TypeInt64}, {Name: "ProducerName", Type: TypeString}, {Name: "file", Type: TypeString},
		{Name: "record_id", Type: TypeUint64}, {Name: "module", Type: TypeString}, {Name: "type", Type: TypeString},
		{Name: "max_byte", Type: TypeInt64}, {Name: "switches", Type: TypeInt64}, {Name: "flushes", Type: TypeInt64},
		{Name: "cnt", Type: TypeInt64}, {Name: "op", Type: TypeString}, {Name: "data_set", Type: TypeString},
		{Name: "pt_sel", Type: TypeInt64}, {Name: "irreg_hslab", Type: TypeInt64}, {Name: "reg_hslab", Type: TypeInt64},
		{Name: "ndims", Type: TypeInt64}, {Name: "npoints", Type: TypeInt64}, {Name: "off", Type: TypeInt64},
		{Name: "len", Type: TypeInt64}, {Name: "dur", Type: TypeFloat64}, {Name: "timestamp", Type: TypeFloat64},
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
	const rows = 1000000
	ops := []string{"open", "read", "write", "close"}
	modules := []string{"POSIX", "MPIIO", "STDIO"}
	b := NewRowBuilder(sch)
	r := rng.New(42)
	for i := 0; c.Count("ev") < rows; i++ {
		job, rank, file, op := r.Intn(16), r.Intn(64), r.Intn(16), ops[r.Intn(len(ops))]
		var length int64
		if op == "read" || op == "write" {
			length = int64(4096 * (1 + r.Intn(4)))
		}
		dur, ts := math.Round(r.Float64()*1e4)/1e6, math.Round((1.6e9+float64(i)*0.001+r.Float64()*0.0005)*1e6)/1e6
		module, maxByte, switches, flushes := modules[r.Intn(len(modules))], r.Intn(1<<24), r.Intn(2), r.Intn(3)
		if i%4 != 0 {
			continue
		}
		b.Begin()
		b.SetInt(0, 99066)
		b.SetStr(1, fmt.Sprintf("/projects/bench/app-%d", job%4), nil, 0)
		b.SetInt(2, int64(job))
		b.SetInt(3, int64(rank))
		b.SetStr(4, fmt.Sprintf("nid%05d", 40+(job*64+rank)%16), nil, 0)
		b.SetStr(5, fmt.Sprintf("/lscratch/bench/out.%02d.dat", file), nil, 0)
		b.SetUint(6, uint64(file)+1)
		b.SetStr(7, module, nil, 0)
		b.SetStr(8, "MOD", nil, 0)
		b.SetInt(9, int64(maxByte))
		b.SetInt(10, int64(switches))
		b.SetInt(11, int64(flushes))
		b.SetInt(12, 1)
		b.SetStr(13, op, nil, 0)
		b.SetStr(14, "N/A", nil, 0)
		for j := 15; j < 20; j++ {
			b.SetInt(j, -1)
		}
		b.SetInt(20, int64(i)*4096)
		b.SetInt(21, length)
		b.SetFloat(22, dur)
		b.SetFloat(23, ts)
		if err := c.Insert("ev", b.Row()); err != nil {
			t.Fatal(err)
		}
		if i%4096 == 0 {
			b.Rewind()
		}
	}
	b = nil
	total := liveObjectBytes() - before
	runtime.KeepAlive(c)
	perRow := float64(total) / rows
	t.Logf("%d rows in %d pages: %.1f B/row live (pages, directory and dictionary)", rows, len(c.slabs["ev"].pages), perRow)
	widths := make([]float64, len(attrs))
	s := c.slabs["ev"]
	for p := 0; p < len(s.pages)-1; p++ {
		for j, col := range s.pages[p].Load().cols {
			widths[j] += float64(bits.OnesCount64(col.mask)/8) / float64(len(s.pages)-1)
		}
	}
	for j, a := range attrs {
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
