package dsos

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
)

// countingWAL is an in-memory log backing that counts its writes.
type countingWAL struct {
	*sos.MemWAL
	writes atomic.Int64
}

func (w *countingWAL) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.MemWAL.Write(p)
}

func walRows(t *testing.T, st sos.WALStore) (rows []sos.Object, origins []uint64) {
	t.Helper()
	if _, err := sos.ReplayWALTo(st, math.MaxUint64, func(_ string, obj sos.Object, origin uint64) error {
		rows, origins = append(rows, obj), append(origins, origin)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows, origins
}

func snapshotBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestInsertBatchSharesMatchPerObjectInserts: a batch grouped into one
// share per daemon builds the shards, and logs the rows, exactly as one
// Insert per object does — in one log write per daemon instead of one per
// row.
func TestInsertBatchSharesMatchPerObjectInserts(t *testing.T) {
	for _, repl := range []int{1, 2} {
		var rows []sos.Object
		for i := 0; i < 64; i++ {
			rows = append(rows, sampleObject(1, int64(i%8), float64(i), "write"))
		}
		build := func(batched bool) (*Cluster, []*countingWAL) {
			c, cl := newDarshanCluster(t, 4)
			c.SetReplication(repl)
			var logs []*countingWAL
			c.EnableWAL(func(string) sos.WALStore {
				w := &countingWAL{MemWAL: sos.NewMemWAL()}
				logs = append(logs, w)
				return w
			})
			if batched {
				if err := cl.InsertBatch(DarshanSchemaName, rows); err != nil {
					t.Fatal(err)
				}
				return c, logs
			}
			for _, o := range rows {
				if err := cl.Insert(DarshanSchemaName, o); err != nil {
					t.Fatal(err)
				}
			}
			return c, logs
		}
		batched, blogs := build(true)
		single, slogs := build(false)
		for i, d := range batched.Daemons() {
			if !bytes.Equal(snapshotBytes(t, d), snapshotBytes(t, single.Daemons()[i])) {
				t.Errorf("R=%d: %s differs from its per-object twin", repl, d.Name)
			}
			if got := blogs[i].writes.Load(); got != 1 {
				t.Errorf("R=%d: %s took %d log writes for one batch, want 1", repl, d.Name, got)
			}
			if got, want := slogs[i].writes.Load(), int64(16*repl); got != want {
				t.Errorf("R=%d: per-object twin of %s took %d log writes, want %d", repl, d.Name, got, want)
			}
			brows, borigins := walRows(t, blogs[i])
			srows, sorigins := walRows(t, slogs[i])
			if !reflect.DeepEqual(rowValues(brows), rowValues(srows)) || !reflect.DeepEqual(borigins, sorigins) {
				t.Errorf("R=%d: %s logged other rows than its per-object twin", repl, d.Name)
			}
		}
	}
}

// TestInsertBatchBadRowFailsAlone: a row that fails the schema check is
// neither stored nor logged, and the rest of its share and batch are.
func TestInsertBatchBadRowFailsAlone(t *testing.T) {
	c, cl := newDarshanCluster(t, 2)
	c.EnableWAL(nil)
	var rows []sos.Object
	for i := 0; i < 6; i++ {
		rows = append(rows, sampleObject(1, int64(i), float64(i), "write"))
	}
	bad := rows[2].Values()
	bad[jsonmsg.ColRank] = "two" // the schema says int64
	rows[2] = sos.NewObject(bad...)
	err := cl.InsertBatch(DarshanSchemaName, rows)
	if err == nil || errors.Is(err, ErrNothingWritten) {
		t.Fatalf("err = %v, want the bad row's schema error, with the rest stored", err)
	}
	if got := cl.Count(DarshanSchemaName); got != 5 {
		t.Fatalf("%d rows stored, want the 5 good ones", got)
	}
	logged := 0
	for _, d := range c.Daemons() {
		got, _ := walRows(t, d.WAL().Store())
		logged += len(got)
	}
	if logged != 5 {
		t.Fatalf("%d rows logged, want the 5 stored", logged)
	}
}

// ackAll is round-robin placement under the every-owner ack rule.
type ackAll struct{ *successive }

func (p ackAll) Rules() Rules { return Rules{AckAll: true, Stamp: true} }

// TestInsertBatchNothingWritten: an insert that stored nothing anywhere
// says so — an AckAll batch refused at admission, or an any-replica batch
// every daemon turned away — and one that stored part of the batch does
// not.
func TestInsertBatchNothingWritten(t *testing.T) {
	rows := []sos.Object{sampleObject(1, 0, 0, "write"), sampleObject(1, 1, 1, "write")}

	c, cl := newDarshanCluster(t, 2)
	c.Daemons()[1].SetFault(errors.New("wedged"))
	if err := cl.InsertBatch(DarshanSchemaName, rows); err == nil || errors.Is(err, ErrNothingWritten) {
		t.Fatalf("one of two shards down: err = %v, want an error that is not ErrNothingWritten", err)
	}
	c.Daemons()[0].SetFault(errors.New("wedged"))
	if err := cl.InsertBatch(DarshanSchemaName, rows); !errors.Is(err, ErrNothingWritten) {
		t.Fatalf("every shard down: err = %v, want ErrNothingWritten", err)
	}

	c, cl = newDarshanCluster(t, 2)
	c.SetPlacement(ackAll{newSuccessive(c.Daemons(), 1)})
	c.Daemons()[0].SetFault(errors.New("wedged"))
	err := cl.InsertBatch(DarshanSchemaName, rows[:1])
	if !errors.Is(err, ErrNothingWritten) || err.Error() != "dsos: owner dsosd0 is down; batch refused" {
		t.Fatalf("refused batch: err = %v, want the refusal marked ErrNothingWritten", err)
	}
	if got := cl.Count(DarshanSchemaName); got != 0 {
		t.Fatalf("a refused batch stored %d rows", got)
	}
	c.Daemons()[0].SetFault(nil)
	if err := cl.InsertBatch(DarshanSchemaName, rows[:1]); err != nil {
		t.Fatal(err)
	}
	if got := c.Daemons()[0].Count(DarshanSchemaName); got != 1 {
		t.Fatalf("the retried row is not on dsosd0 (%d rows there): the refused batch consumed placement sequence", got)
	}
}

// TestQuorumClockOnlyWhenReplicated: an insert reads the obs clock only
// when its plan placed some object on more than one daemon, the only
// objects dlc_dsos_quorum_latency_ns times. At R = 1 a batch and a single
// insert read it never and the histogram stays empty; at R = 2 every
// object lands one observation, as before.
func TestQuorumClockOnlyWhenReplicated(t *testing.T) {
	for _, repl := range []int{1, 2} {
		c, cl := newDarshanCluster(t, 4)
		c.SetReplication(repl)
		reg, reads := obs.NewRegistry(), 0
		c.Instrument(reg, func() time.Duration { reads++; return time.Duration(reads) })
		var rows []sos.Object
		for i := 0; i < 64; i++ {
			rows = append(rows, sampleObject(1, int64(i%8), float64(i), "write"))
		}
		if err := cl.InsertBatch(DarshanSchemaName, rows); err != nil {
			t.Fatal(err)
		}
		if err := cl.Insert(DarshanSchemaName, rows[0]); err != nil {
			t.Fatal(err)
		}
		n := reg.Histogram("dlc_dsos_quorum_latency_ns").Count()
		if repl == 1 && (reads != 0 || n != 0) || repl == 2 && (reads == 0 || n != 65) {
			t.Errorf("R=%d: %d clock reads, %d quorum observations; want none at R=1 and 65 at R=2", repl, reads, n)
		}
	}
}

// TestInsertBatchPlanReusesBuffers: planning a steady-state batch into
// the shares the last one grew allocates nothing.
func TestInsertBatchPlanReusesBuffers(t *testing.T) {
	c, _ := newDarshanCluster(t, 4)
	c.SetReplication(2)
	var rows []sos.Object
	for i := 0; i < 64; i++ {
		rows = append(rows, sampleObject(1, int64(i%8), float64(i), "write"))
	}
	p := c.Placement()
	var b batch
	seq := uint64(0)
	plan := func() {
		if err := b.plan(p, DarshanSchemaName, rows, seq, seq, p.Rules()); err != nil {
			t.Fatal(err)
		}
		seq += uint64(len(rows))
	}
	plan()
	if allocs := testing.AllocsPerRun(100, plan); allocs != 0 {
		t.Fatalf("planning a steady-state batch allocates %v times", allocs)
	}
	if len(b.shares) != 4 || len(b.shares[0].objs) != 32 {
		t.Fatalf("%d shares of %d rows, want 4 of 32", len(b.shares), len(b.shares[0].objs))
	}
}

// TestDaemonSnapshotDuringIngest: a snapshot taken while a writer inserts
// is a consistent shard — it restores, and holds a prefix of what was
// inserted — and once the writer stops, its bytes are the container's own
// snapshot's. Run under -race: the snapshot encodes outside the daemon
// lock.
func TestDaemonSnapshotDuringIngest(t *testing.T) {
	c, cl := newDarshanCluster(t, 1)
	d := c.Daemons()[0]
	const batches, per = 200, 16
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < batches; i++ {
			rows := make([]sos.Object, per)
			for j := range rows {
				rows[j] = sampleObject(1, int64(j%8), float64(i*per+j), "write")
			}
			if err := cl.InsertBatch(DarshanSchemaName, rows); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for last, writing := 0, true; writing; {
		select {
		case <-done:
			writing = false
		default:
		}
		cont, err := sos.Restore(bytes.NewReader(snapshotBytes(t, d)))
		if err != nil {
			t.Fatal(err)
		}
		n := cont.Count(DarshanSchemaName)
		objs, err := cont.Range("job_rank_time", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n < last || len(objs) != n || n%per != 0 {
			t.Fatalf("snapshot of %d objects (%d indexed) after one of %d: not a whole-batch prefix", n, len(objs), last)
		}
		last = n
	}
	if got := d.Count(DarshanSchemaName); got != batches*per {
		t.Fatalf("%d objects stored, want %d", got, batches*per)
	}
	var own bytes.Buffer
	if err := d.Container().Snapshot(&own); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, d), own.Bytes()) {
		t.Fatal("Daemon.Snapshot and Container.Snapshot differ on the same contents")
	}
}
