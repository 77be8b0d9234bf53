package dsos_test

import (
	"fmt"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/topo"
)

// barrierRow is row i of the barrier test: 32 ranks of 4 producers, so
// every shard owns some rows.
func barrierRow(i int) sos.Object {
	m := jsonmsg.Message{
		UID: 99066, Exe: "/bin/app", JobID: 1, Rank: i % 32,
		ProducerName: fmt.Sprintf("nid%05d", i%4), File: "/scratch/f", RecordID: uint64(i),
		Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write", Cnt: 1,
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 4096, Dur: 0.01, Timestamp: float64(i)}},
	}
	return dsos.ObjectsFromMessage(&m)[0]
}

// TestMoveWaitsForParkedInsert parks an insert between its plan and its
// first write and issues a grow or a shrink inside that window. The move
// must wait at the insert barrier — it has not happened while the insert
// is parked, and a count still answers meanwhile — and once the insert is
// released both finish: every acked row is stored once, on exactly its
// owners on the new ring.
func TestMoveWaitsForParkedInsert(t *testing.T) {
	for _, tc := range []struct {
		name string
		move func(*topo.HashCluster) error
	}{
		{"grow", func(h *topo.HashCluster) error { return h.Grow("dsosd3") }},
		{"shrink", func(h *topo.HashCluster) error { return h.Shrink("dsosd2") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dsos.NewCluster(3, "darshan_data")
			c.EnableWAL(nil)
			if err := dsos.SetupDarshan(c); err != nil {
				t.Fatal(err)
			}
			h, err := topo.NewHashCluster(topo.HashConfig{Seed: 7, Factory: func(name string) (*dsos.Daemon, error) {
				return dsos.NewDarshanShard(name, "darshan_data", sos.NewMemWAL())
			}}, c)
			if err != nil {
				t.Fatal(err)
			}
			cl := dsos.Connect(c)
			const before, parked = 200, 64
			var rows []sos.Object
			for i := 0; i < before+parked; i++ {
				rows = append(rows, barrierRow(i))
			}
			if err := cl.InsertBatch(dsos.DarshanSchemaName, rows[:before]); err != nil {
				t.Fatal(err)
			}

			held, release := make(chan struct{}), make(chan struct{})
			dsos.HoldAfterPlan(cl, func() { close(held); <-release })
			inserted := make(chan error, 1)
			go func() { inserted <- cl.InsertBatch(dsos.DarshanSchemaName, rows[before:]) }()
			<-held
			moved := make(chan error, 1)
			go func() { moved <- tc.move(h) }()
			select {
			case err := <-moved:
				t.Fatalf("%s returned (%v) while an insert planned on the old ring was parked", tc.name, err)
			case <-time.After(50 * time.Millisecond):
			}
			if got := cl.Count(dsos.DarshanSchemaName); got != before {
				t.Fatalf("count = %d while the insert is parked, want %d", got, before)
			}
			if st := h.Stats(); st.Migrations != 0 {
				t.Fatalf("the %s ran while the insert was parked: %+v", tc.name, st)
			}
			close(release)
			if err := <-inserted; err != nil {
				t.Fatal(err)
			}
			if err := <-moved; err != nil {
				t.Fatal(err)
			}
			dsos.HoldAfterPlan(cl, nil)

			if st := h.Stats(); st.Migrations != 1 {
				t.Fatalf("stats %+v after the %s", st, tc.name)
			}
			if got := cl.Count(dsos.DarshanSchemaName); got != before+parked {
				t.Fatalf("%d rows stored across the shards, want %d: an acked row was lost or duplicated", got, before+parked)
			}
			objs, info, err := cl.QueryEx("job_rank_time", nil, nil)
			if err != nil || info.Partial || len(objs) != before+parked {
				t.Fatalf("query returned %d of %d rows (%+v, %v)", len(objs), before+parked, info, err)
			}
			violations, err := h.AuditPlacement()
			if err != nil {
				t.Fatal(err)
			}
			if len(violations) != 0 {
				t.Fatalf("%d placement violations after the %s, first: %s", len(violations), tc.name, violations[0])
			}
		})
	}
}
