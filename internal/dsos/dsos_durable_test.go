package dsos

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sim"
	"darshanldms/internal/sos"
)

func TestReplicatedInsert(t *testing.T) {
	c, cl := newDarshanCluster(t, 4)
	c.SetReplication(2)
	const n = 100
	for i := 0; i < n; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	// Every object is stored twice...
	if got := cl.Count(DarshanSchemaName); got != 2*n {
		t.Fatalf("replica count = %d, want %d", got, 2*n)
	}
	// ...but queried once: the merge dedups by origin.
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != n {
		t.Fatalf("query returned %d, want %d deduped", len(objs), n)
	}
	// Replicas land on successive daemons: 4 daemons x R=2 x 100 inserts
	// round-robin means each daemon holds 50 replicas.
	for _, d := range c.Daemons() {
		if got := d.Count(DarshanSchemaName); got != 50 {
			t.Fatalf("daemon %s has %d replicas, want 50", d.Name, got)
		}
	}
}

// Satellite regression: a faulted daemon must degrade the query, not fail
// it. With R=1 the result is partial (data genuinely missing); with R=2
// the surviving replicas cover everything and the query is clean.
func TestQueryDegradesOnFaultedDaemon(t *testing.T) {
	c, cl := newDarshanCluster(t, 3)
	const n = 90
	for i := 0; i < n; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	c.Daemons()[1].SetFault(errors.New("wedged"))
	objs, err := cl.Query("job_rank_time", nil, nil)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("err = %v, want ErrPartial", err)
	}
	if len(objs) != n-30 {
		t.Fatalf("partial result has %d objects, want %d from healthy daemons", len(objs), n-30)
	}
	objs, info, err := cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Partial || len(info.Failed) != 1 || info.Failed[0] != "dsosd1" {
		t.Fatalf("info = %+v", info)
	}
	if len(objs) != n-30 {
		t.Fatalf("QueryEx returned %d objects", len(objs))
	}

	// Heal, replicate, re-ingest: now one faulted daemon hides nothing.
	c2, cl2 := newDarshanCluster(t, 3)
	c2.SetReplication(2)
	for i := 0; i < n; i++ {
		if err := cl2.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	c2.Daemons()[1].SetFault(errors.New("wedged"))
	objs, err = cl2.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatalf("replicated query with one fault: %v", err)
	}
	if len(objs) != n {
		t.Fatalf("replicated query returned %d, want %d", len(objs), n)
	}
}

// With R=2, two adjacent daemons down can hide a placement group: the
// query must say Partial. Two non-adjacent daemons (of 4) cannot.
func TestPartialNeedsWholePlacementGroupDown(t *testing.T) {
	c, cl := newDarshanCluster(t, 4)
	c.SetReplication(2)
	for i := 0; i < 40; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	c.Daemons()[0].SetFault(errors.New("down"))
	c.Daemons()[2].SetFault(errors.New("down"))
	_, info, err := cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Partial {
		t.Fatalf("non-adjacent failures reported Partial: %+v", info)
	}
	c.Daemons()[2].SetFault(nil)
	c.Daemons()[1].SetFault(errors.New("down"))
	_, info, err = cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Partial {
		t.Fatalf("adjacent failures not reported Partial: %+v", info)
	}
}

func TestCrashRestartWithWAL(t *testing.T) {
	c, cl := newDarshanCluster(t, 3)
	c.EnableWAL(nil)
	const n = 60
	for i := 0; i < n; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Daemons()[1]
	before := victim.Count(DarshanSchemaName)
	victim.Crash()
	if victim.Count(DarshanSchemaName) != 0 {
		t.Fatal("crashed daemon still counts objects")
	}
	if err := victim.Insert(DarshanSchemaName, sampleObject(9, 0, 1, "write")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("insert on crashed daemon: %v", err)
	}
	if _, err := cl.Query("job_rank_time", nil, nil); !errors.Is(err, ErrPartial) {
		t.Fatalf("query with crashed shard: %v", err)
	}
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := victim.Count(DarshanSchemaName); got != before {
		t.Fatalf("recovered %d objects, want %d", got, before)
	}
	if victim.Recovered() != uint64(before) {
		t.Fatalf("Recovered() = %d, want %d", victim.Recovered(), before)
	}
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != n {
		t.Fatalf("post-recovery query returned %d, want %d", len(objs), n)
	}
}

// The WAL golden test from the issue: kill a daemon mid-batch, restart,
// and the store must hold exactly the acked inserts.
func TestWALCrashMidBatchGolden(t *testing.T) {
	c, cl := newDarshanCluster(t, 2)
	c.EnableWAL(nil)
	victim := c.Daemons()[0]
	acked := 0
	for i := 0; i < 100; i++ {
		if i == 57 {
			victim.Crash()
		}
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%4), float64(i), "write")); err == nil {
			acked++
		}
	}
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := cl.Count(DarshanSchemaName); got != acked {
		t.Fatalf("after crash+restart: stored %d, acked %d", got, acked)
	}
}

// Daemon crash/restart scheduled in virtual time (the shape the fault
// controller's RegisterCrash hooks use — the full controller wiring is
// covered by the harness chaos soak): the restarted daemon comes back
// with its data.
func TestScheduledCrashRecovery(t *testing.T) {
	c, cl := newDarshanCluster(t, 2)
	c.EnableWAL(nil)
	e := sim.NewEngine()
	defer e.Close()
	victim := c.Daemons()[0]
	e.At(2*time.Second, victim.Crash)
	e.At(5*time.Second, func() {
		if err := victim.Restart(); err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	inserted := 0
	e.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			// Writes during the outage fail over to the healthy daemon or
			// fail; count acks only.
			if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i), float64(i), "write")); err == nil {
				inserted++
			}
			p.Sleep(time.Second)
		}
	})
	if err := e.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := cl.Count(DarshanSchemaName); got != inserted {
		t.Fatalf("stored %d, acked %d", got, inserted)
	}
	if victim.Recovered() == 0 {
		t.Fatal("victim recovered nothing from its WAL")
	}
}

// Read repair: when a replica restarts empty (no WAL), a query copies the
// surviving replicas back so the cluster converges to R copies.
func TestReadRepair(t *testing.T) {
	c, cl := newDarshanCluster(t, 3)
	c.SetReplication(2)
	const n = 30
	for i := 0; i < n; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%4), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Daemons()[1]
	victim.Crash()
	if err := victim.Restart(); err != nil { // no WAL: comes back empty
		t.Fatal(err)
	}
	if victim.Count(DarshanSchemaName) != 0 {
		t.Fatal("no-WAL restart should be empty")
	}
	objs, info, err := cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != n {
		t.Fatalf("query after restart returned %d, want %d", len(objs), n)
	}
	if info.Repaired == 0 {
		t.Fatal("expected read repair to run")
	}
	// Convergence: every object is back to 2 replicas.
	if got := cl.Count(DarshanSchemaName); got != 2*n {
		t.Fatalf("after repair: %d replicas, want %d", got, 2*n)
	}
	_, info, err = cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Repaired != 0 {
		t.Fatalf("second query repaired %d more", info.Repaired)
	}
}

// Satellite: concurrent clients hammering Insert must be race-free (run
// under -race) and lose nothing.
func TestConcurrentClientsNoRace(t *testing.T) {
	c, _ := newDarshanCluster(t, 4)
	c.SetReplication(2)
	c.EnableWAL(nil)
	const clients, each = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := Connect(c)
			for i := 0; i < each; i++ {
				if err := cl.Insert(DarshanSchemaName, sampleObject(int64(w), int64(i%16), float64(i), "write")); err != nil {
					t.Errorf("insert: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	cl := Connect(c)
	if got := cl.Count(DarshanSchemaName); got != 2*clients*each {
		t.Fatalf("replica count %d, want %d", got, 2*clients*each)
	}
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != clients*each {
		t.Fatalf("deduped query %d, want %d", len(objs), clients*each)
	}
}

// WAL-off crash keeps the pre-durability lossy behavior (documented, not
// accidental): restart is empty and the query is clean again afterwards.
func TestCrashWithoutWALLosesShard(t *testing.T) {
	c, cl := newDarshanCluster(t, 2)
	for i := 0; i < 20; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(1, int64(i%4), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	victim := c.Daemons()[0]
	victim.Crash()
	if err := victim.Restart(); err != nil {
		t.Fatal(err)
	}
	objs, err := cl.Query("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 10 {
		t.Fatalf("surviving objects %d, want the other shard's 10", len(objs))
	}
}

// TestRecoverAfterTornDelta tears a shard log inside the dictionary delta
// of its last record, recovers, appends rows that reuse the torn strings and
// rows that add new ones, and recovers again. Every acked row must come
// back with its strings, and no record written after the first recovery
// may be cut: the writer resumes from the dictionary the replay read, not
// from the one it had before the crash, and appends behind the cut tail.
func TestRecoverAfterTornDelta(t *testing.T) {
	mem := sos.NewMemWAL()
	d, err := NewDarshanShard("dsosd0", "darshan_data", mem)
	if err != nil {
		t.Fatal(err)
	}
	arena := NewRowArena()
	var acked []string // file, op of every acked row
	insert := func(token uint64, files ...string) {
		t.Helper()
		var rows []sos.Object
		for i, f := range files {
			m := jsonmsg.Message{Module: "POSIX", ProducerName: "nid00040", File: f, Exe: "/bin/app",
				Type: jsonmsg.TypeMOD, Op: "op-" + f, JobID: 1, Rank: i, Seg: []jsonmsg.Segment{{Timestamp: float64(token)}}}
			rows = arena.AppendObjects(rows, &m)
		}
		sh := share{objs: rows, ids: make([]uint64, len(rows))}
		d.insertShare(DarshanSchemaName, &sh, token)
		if sh.err != nil || sh.stored != len(rows) {
			t.Fatalf("insert of %v: %v", files, sh.err)
		}
		for _, f := range files {
			acked = append(acked, f+" op-"+f)
		}
	}
	long := func(name string) string { return "/scratch/" + name + strings.Repeat("x", 40) }

	insert(1, long("a"), long("b"))
	clean := mem.Len()
	insert(2, long("a"), long("torn1"), long("torn2"))
	acked = acked[:2] // the crash tears the second record: never acked
	d.Crash()
	log := readMem(t, mem)
	at := bytes.Index(log[clean:], []byte(long("torn1")))
	if at < 0 {
		t.Fatal("the second record's delta does not hold its new string")
	}
	_ = mem.Reset(int64(clean + at + 20)) // mid-string, inside the delta
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	checkRows(t, d, acked)

	insert(3, long("torn1"), long("a"), long("c"))
	insert(4, long("torn2"), long("c"), long("d"))
	d.Crash()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	checkRows(t, d, acked)
	// The dsosd path reads the same log, and finds no cut tail in it.
	d2, err := NewDarshanShard("dsosd0", "darshan_data", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := d2.RecoverWAL(mem, math.MaxUint64, math.MaxUint64)
	if err != nil || r.Consumed != int64(mem.Len()) || r.Rows != len(acked) {
		t.Fatalf("recovered %+v of a %d-byte log holding %d rows: %v", r, mem.Len(), len(acked), err)
	}
}

// checkRows requires d to hold exactly the rows want lists, as
// "file op", in any order.
func checkRows(t *testing.T, d *Daemon, want []string) {
	t.Helper()
	var got []string
	if err := d.IterOrigins("job_rank_time", nil, func(o sos.Object, _ uint64) bool {
		got = append(got, o.Str(jsonmsg.ColFile)+" "+o.Str(jsonmsg.ColOp))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range want {
		count[s]++
	}
	for _, s := range got {
		count[s]--
	}
	for s, n := range count {
		if n != 0 || len(got) != len(want) {
			t.Fatalf("holds %d rows, want %d: %q is off by %d", len(got), len(want), s, -n)
		}
	}
}

func readMem(t *testing.T, m *sos.MemWAL) []byte {
	t.Helper()
	r, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// errDiskFull is what a failingWAL's writes return while it is armed.
var errDiskFull = errors.New("no space left on device")

// failingWAL is a MemWAL whose writes fail while armed: appends, and the
// writes of a rewrite that would replace the log.
type failingWAL struct {
	*sos.MemWAL
	armed bool
}

func (w *failingWAL) Write(p []byte) (int, error) {
	if w.armed {
		return 0, errDiskFull
	}
	return w.MemWAL.Write(p)
}

func (w *failingWAL) Replace(fill func(io.Writer) error) error {
	return w.MemWAL.Replace(func(dst io.Writer) error {
		if w.armed {
			dst = w // every write of the rewrite fails
		}
		return fill(dst)
	})
}

// TestRetainWhereFailedRewriteKeepsTheLog: a RetainWhere whose log
// rewrite fails (the disk is full) leaves the shard, its log and its log
// writer as they were, so inserts after it still log and a restart
// recovers every row. Rewriting by truncating the log first and appending
// the kept rows after left an empty log on that failure, and the writer,
// still on the old dictionary, logged records a replay cut as a torn
// tail: the restart recovered nothing.
func TestRetainWhereFailedRewriteKeepsTheLog(t *testing.T) {
	wal := &failingWAL{MemWAL: sos.NewMemWAL()}
	d, err := NewDarshanShard("s0", "darshan_data", wal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Insert(DarshanSchemaName, sampleObject(int64(1+i%2), int64(i), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	wal.armed = true
	keepJob1 := func(o sos.Object, _ uint64) bool { return o.Int(jsonmsg.ColJobID) == 1 }
	if _, err := d.RetainWhere("job_rank_time", keepJob1); !errors.Is(err, errDiskFull) {
		t.Fatalf("retain on a full disk: %v", err)
	}
	wal.armed = false
	if got := d.Count(DarshanSchemaName); got != 10 {
		t.Fatalf("a failed retain left %d rows live, want 10", got)
	}
	if err := d.Insert(DarshanSchemaName, sampleObject(3, 0, 10, "newdictstring")); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := d.Count(DarshanSchemaName); got != 11 {
		t.Fatalf("restart recovered %d rows, want 11", got)
	}

	// And a retain that succeeds is what a restart recovers, with the
	// inserts after it.
	if dropped, err := d.RetainWhere("job_rank_time", keepJob1); err != nil || dropped != 6 {
		t.Fatalf("retain dropped %d, %v; want 6", dropped, err)
	}
	if err := d.Insert(DarshanSchemaName, sampleObject(1, 9, 11, "after")); err != nil {
		t.Fatal(err)
	}
	d.Crash()
	if err := d.Restart(); err != nil {
		t.Fatal(err)
	}
	if got := d.Count(DarshanSchemaName); got != 6 {
		t.Fatalf("restart after a retain recovered %d rows, want 6", got)
	}
}
