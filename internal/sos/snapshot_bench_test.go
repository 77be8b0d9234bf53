package sos

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"darshanldms/internal/rng"
)

// benchShardRows is the rows of one of the four shards of a
// besteffort-firehose run of the benchmark.
const benchShardRows = 277_792

// darshanIndexes are the store's three joint indices.
var darshanIndexes = []IndexSpec{
	{Name: "job_rank_time", Schema: "ev", Attrs: []string{"job_id", "rank", "timestamp"}},
	{Name: "job_time_rank", Schema: "ev", Attrs: []string{"job_id", "timestamp", "rank"}},
	{Name: "time_job_rank", Schema: "ev", Attrs: []string{"timestamp", "job_id", "rank"}},
}

// benchShard returns a container of n rows shaped like one shard's share
// of the benchmark's traffic (every 4th event of its generator: 16 jobs x
// 64 ranks, four executables, 16 files, a sequential offset, rising
// timestamps, random durations and max_byte), under indexes.
func benchShard(tb testing.TB, n int, indexes ...IndexSpec) *Container {
	tb.Helper()
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
		tb.Fatal(err)
	}
	c := NewContainer("bench")
	if err := c.AddSchema(sch); err != nil {
		tb.Fatal(err)
	}
	for _, spec := range indexes {
		if _, err := c.AddIndex(spec); err != nil {
			tb.Fatal(err)
		}
	}
	ops := []string{"open", "read", "write", "close"}
	modules := []string{"POSIX", "MPIIO", "STDIO"}
	b := NewRowBuilder(sch)
	r := rng.New(42)
	for i := 0; c.Count("ev") < n; i++ {
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
			tb.Fatal(err)
		}
		if i%4096 == 0 {
			b.Rewind()
		}
	}
	return c
}

// BenchmarkSnapshot times writing the snapshot of a bench shard
// (benchShard, benchShardRows rows, the three darshan indexes) and reports
// its time and size per row.
func BenchmarkSnapshot(b *testing.B) {
	c := benchShard(b, benchShardRows, darshanIndexes...)
	var snap bytes.Buffer
	b.ResetTimer()
	for range b.N {
		snap.Reset()
		if err := c.Snapshot(&snap); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchShardRows), "ns/row")
	b.ReportMetric(float64(snap.Len())/benchShardRows, "B/row")
}

// BenchmarkRestore times restoring that snapshot, indexes included, per
// row.
func BenchmarkRestore(b *testing.B) {
	var snap bytes.Buffer
	if err := benchShard(b, benchShardRows, darshanIndexes...).Snapshot(&snap); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for range b.N {
		c, err := Restore(bytes.NewReader(snap.Bytes()))
		if err != nil || c.Count("ev") != benchShardRows {
			b.Fatalf("restored %v: %v", c, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchShardRows), "ns/row")
	b.ReportMetric(float64(snap.Len())/benchShardRows, "B/row")
}
