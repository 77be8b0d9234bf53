package dsos

import (
	"fmt"
	"sync"
	"testing"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

func newDarshanCluster(t *testing.T, n int) (*Cluster, *Client) {
	t.Helper()
	c := NewCluster(n, "darshan_data")
	if err := SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	return c, Connect(c)
}

func sampleObject(job, rank int64, ts float64, op string) sos.Object {
	m := jsonmsg.Message{
		UID: 99066, Exe: "/bin/app", JobID: job, Rank: int(rank),
		ProducerName: "nid00040", File: "/nscratch/f", RecordID: 7,
		Module: "POSIX", Type: jsonmsg.TypeMOD, Op: op,
		MaxByte: -1, Switches: 0, Flushes: 0, Cnt: 1,
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: 0, Len: 4096, Dur: 0.01, Timestamp: ts,
		}},
	}
	return ObjectsFromMessage(&m)[0]
}

func TestShardedIngest(t *testing.T) {
	c, cl := newDarshanCluster(t, 4)
	for i := 0; i < 100; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	if cl.Count(DarshanSchemaName) != 100 {
		t.Fatalf("count %d", cl.Count(DarshanSchemaName))
	}
	for _, d := range c.Daemons() {
		if got := d.Count(DarshanSchemaName); got != 25 {
			t.Fatalf("daemon %s has %d objects, want 25 (round-robin)", d.Name, got)
		}
	}
}

func TestParallelQueryMergesSorted(t *testing.T) {
	_, cl := newDarshanCluster(t, 3)
	r := rng.New(9)
	const n = 3000
	for i := 0; i < n; i++ {
		job := int64(1 + r.Intn(3))
		rank := int64(r.Intn(16))
		ts := r.Float64() * 500
		if err := cl.Insert(DarshanSchemaName, sampleObject(job, rank, ts, "write")); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != n {
		t.Fatalf("query returned %d of %d", len(objs), n)
	}
	for i := 1; i < len(objs); i++ {
		a := sos.Key{objs[i-1].Int(jsonmsg.ColJobID), objs[i-1].Int(jsonmsg.ColRank), objs[i-1].Float(jsonmsg.ColSegTimestamp)}
		b := sos.Key{objs[i].Int(jsonmsg.ColJobID), objs[i].Int(jsonmsg.ColRank), objs[i].Float(jsonmsg.ColSegTimestamp)}
		if compareKeys(a, b) > 0 {
			t.Fatalf("merged output out of order at %d", i)
		}
	}
}

func TestQueryJobRankPrefix(t *testing.T) {
	_, cl := newDarshanCluster(t, 4)
	for job := int64(1); job <= 3; job++ {
		for rank := int64(0); rank < 4; rank++ {
			for k := 0; k < 10; k++ {
				cl.Insert(DarshanSchemaName, sampleObject(job, rank, float64(k), "write"))
			}
		}
	}
	// The paper's example: a specific rank within a specific job over time.
	objs, err := cl.Query("job_rank_time", sos.Key{int64(2), int64(3)}, sos.Key{int64(2), int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 10 {
		t.Fatalf("prefix query returned %d", len(objs))
	}
	lastTS := -1.0
	for _, o := range objs {
		if o.Int(jsonmsg.ColJobID) != 2 || o.Int(jsonmsg.ColRank) != 3 {
			t.Fatalf("stray object %v", o)
		}
		ts := o.Float(jsonmsg.ColSegTimestamp)
		if ts < lastTS {
			t.Fatal("timestamps not ascending")
		}
		lastTS = ts
	}
}

func TestAlternateIndexOrdering(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	for i := 0; i < 200; i++ {
		cl.Insert(DarshanSchemaName, sampleObject(int64(i%4), int64(i%8), float64(200-i), "read"))
	}
	objs, err := cl.Query("time_job_rank", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1].Float(jsonmsg.ColSegTimestamp) > objs[i].Float(jsonmsg.ColSegTimestamp) {
			t.Fatal("time_job_rank not time-ordered")
		}
	}
}

func TestQueryUnknownIndex(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	if _, err := cl.Query("bogus", nil, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestConcurrentIngest(t *testing.T) {
	_, cl := newDarshanCluster(t, 4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cl.Insert(DarshanSchemaName, sampleObject(int64(w), int64(i%16), float64(i), "write"))
			}
		}(w)
	}
	wg.Wait()
	if got := cl.Count(DarshanSchemaName); got != 4000 {
		t.Fatalf("count %d", got)
	}
	objs, err := cl.Query("job_rank_time", sos.Key{int64(3)}, sos.Key{int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 500 {
		t.Fatalf("job 3 objects: %d", len(objs))
	}
}

func TestObjectsFromMessageMultiSeg(t *testing.T) {
	m := jsonmsg.Message{
		Module: "POSIX", Op: "write", Type: jsonmsg.TypeMOD, Exe: jsonmsg.NA, File: jsonmsg.NA,
		Seg: []jsonmsg.Segment{
			{DataSet: jsonmsg.NA, Off: 0, Len: 10, Timestamp: 1},
			{DataSet: jsonmsg.NA, Off: 10, Len: 20, Timestamp: 2},
		},
	}
	objs := ObjectsFromMessage(&m)
	if len(objs) != 2 {
		t.Fatalf("objects %d", len(objs))
	}
	if objs[1].Int(jsonmsg.ColSegLen) != 20 {
		t.Fatalf("seg values %v", objs[1])
	}
}

func TestObjectMatchesSchema(t *testing.T) {
	// Every object produced from a message must insert cleanly — catches
	// schema/layout drift.
	_, cl := newDarshanCluster(t, 1)
	obj := sampleObject(1, 2, 3.5, "open")
	if err := cl.Insert(DarshanSchemaName, obj); err != nil {
		t.Fatal(err)
	}
	sch := DarshanSchema()
	if obj.Len() != len(sch.Attrs) {
		t.Fatalf("object arity %d vs schema %d", obj.Len(), len(sch.Attrs))
	}
}

func TestDistinctJobs(t *testing.T) {
	_, cl := newDarshanCluster(t, 3)
	for _, job := range []int64{5, 2, 9, 2, 5} {
		for i := 0; i < 20; i++ {
			cl.Insert(DarshanSchemaName, sampleObject(job, int64(i%4), float64(i), "write"))
		}
	}
	jobs, err := cl.DistinctJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0] != 2 || jobs[1] != 5 || jobs[2] != 9 {
		t.Fatalf("jobs %v", jobs)
	}
}

func TestDistinctJobsEmpty(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	jobs, err := cl.DistinctJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("jobs %v", jobs)
	}
}

func TestClusterFromContainers(t *testing.T) {
	c1, cl1 := newDarshanCluster(t, 1)
	cl1.Insert(DarshanSchemaName, sampleObject(1, 0, 1.0, "open"))
	cl1.Insert(DarshanSchemaName, sampleObject(1, 0, 2.0, "close"))
	wrapped := NewClusterFromContainers([]*sos.Container{c1.Daemons()[0].Container()})
	cl2 := Connect(wrapped)
	if cl2.Count(DarshanSchemaName) != 2 {
		t.Fatalf("count %d", cl2.Count(DarshanSchemaName))
	}
	if cl2.Cluster() != wrapped {
		t.Fatal("Cluster accessor")
	}
	objs, err := cl2.Query("job_rank_time", nil, nil)
	if err != nil || len(objs) != 2 {
		t.Fatalf("query %d %v", len(objs), err)
	}
}

func TestSetupDarshanIdempotentFailure(t *testing.T) {
	c, _ := newDarshanCluster(t, 1)
	if err := SetupDarshan(c); err == nil {
		t.Fatal("double setup should fail (duplicate schema)")
	}
}

func TestClusterPanicsOnZeroDaemons(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCluster(0, "x")
}

// BenchmarkParallelQueryFanout measures the cost of fanning a query over
// k daemons and k-way merging, versus a single container (at in-memory
// speeds the merge overhead dominates; with disk-backed daemons the
// parallel scan wins, which is DSOS's design point).
func BenchmarkParallelQueryFanout(b *testing.B) {
	for _, daemons := range []int{1, 4} {
		daemons := daemons
		b.Run(fmt.Sprintf("daemons-%d", daemons), func(b *testing.B) {
			c := NewCluster(daemons, "bench")
			if err := SetupDarshan(c); err != nil {
				b.Fatal(err)
			}
			cl := Connect(c)
			for i := 0; i < 100000; i++ {
				cl.Insert(DarshanSchemaName, sampleObject(int64(i%8), int64(i%64), float64(i), "write"))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				objs, err := cl.Query("job_rank_time", sos.Key{int64(i % 8)}, sos.Key{int64(i%8 + 1)})
				if err != nil || len(objs) == 0 {
					b.Fatal("query failed")
				}
			}
		})
	}
}

func BenchmarkIngest(b *testing.B) {
	c := NewCluster(4, "bench")
	if err := SetupDarshan(c); err != nil {
		b.Fatal(err)
	}
	cl := Connect(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl.Insert(DarshanSchemaName, sampleObject(int64(i%8), int64(i%64), float64(i), "write"))
	}
}
