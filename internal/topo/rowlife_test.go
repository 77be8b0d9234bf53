package topo

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// TestInsertOutlivesRowMemory holds the contract that lets a store build
// each round's rows in the last round's memory (dsos.RowArena.Rewind):
// InsertTagged copies every row into each owner's pages and log before it
// returns. Rounds whose row memory is scribbled over right after their
// insert — with a grow between two of them, which hands rows already
// stored on to the new shard — leave every shard's log and snapshot, and
// the move's books, byte for byte as rounds of fresh heap rows do.
func TestInsertOutlivesRowMemory(t *testing.T) {
	const rounds, per = 8, 64
	r := rng.New(38)
	msgs := make([]jsonmsg.Message, rounds*per)
	for i := range msgs {
		msgs[i] = jsonmsg.Message{
			UID: 99066, Exe: fmt.Sprintf("/bin/app-%d", i%3), JobID: int64(1 + r.Intn(4)), Rank: r.Intn(32),
			ProducerName: fmt.Sprintf("nid%05d", r.Intn(8)), File: fmt.Sprintf("/scratch/f%d", r.Intn(16)),
			RecordID: uint64(i), Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write", Cnt: 1,
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Off: int64(i) * 4096, Len: 4096, Dur: 0.01, Timestamp: float64(i)}},
		}
	}
	junk := jsonmsg.Message{
		UID: -1, Exe: "junk-exe", JobID: -7, Rank: -7, ProducerName: "junk-producer", File: "junk-file",
		RecordID: ^uint64(0), Module: "junk", Type: "junk", Op: "junk", Cnt: -1,
		Seg: []jsonmsg.Segment{{DataSet: "junk", Off: -1, Len: -1, Dur: -1, Timestamp: -1}},
	}
	run := func(scribble bool) ([][]byte, RebalanceStats) {
		var wals []*sos.MemWAL
		logTo := func() sos.WALStore {
			w := sos.NewMemWAL()
			wals = append(wals, w)
			return w
		}
		c := dsos.NewCluster(3, "darshan_data")
		c.EnableWAL(func(string) sos.WALStore { return logTo() })
		if err := dsos.SetupDarshan(c); err != nil {
			t.Fatal(err)
		}
		h, err := NewHashCluster(HashConfig{Seed: 7, Factory: func(name string) (*dsos.Daemon, error) {
			d := darshanDaemon(t, name)
			d.EnableWAL(logTo())
			return d, nil
		}}, c)
		if err != nil {
			t.Fatal(err)
		}
		cl := dsos.Connect(c)
		arena := dsos.NewRowArena()
		var objs []sos.Object
		for k := 0; k < rounds; k++ {
			if k == 2 {
				if err := h.Grow("dsosd3"); err != nil {
					t.Fatal(err)
				}
			}
			objs = objs[:0]
			arena.Rewind()
			for i := range msgs[k*per : (k+1)*per] {
				m := &msgs[k*per+i]
				if scribble {
					objs = arena.AppendObjects(objs, m)
				} else {
					objs = append(objs, dsos.ObjectsFromMessage(m)...)
				}
			}
			if err := cl.InsertTagged(dsos.DarshanSchemaName, objs, uint64(k+1)); err != nil {
				t.Fatal(err)
			}
			if scribble {
				arena.Rewind()
				for range objs {
					arena.AppendObjects(nil, &junk)
				}
			}
		}
		var out [][]byte
		for i, d := range h.cluster.Daemons() {
			rd, err := wals[i].Open()
			if err != nil {
				t.Fatal(err)
			}
			b, err := io.ReadAll(rd)
			rd.Close()
			if err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if err := d.Snapshot(&snap); err != nil {
				t.Fatal(err)
			}
			out = append(out, b, snap.Bytes())
		}
		return out, h.Stats()
	}
	got, gotStats := run(true)
	want, wantStats := run(false)
	if wantStats.Migrations != 1 || wantStats.Moved == 0 {
		t.Fatalf("the grow moved nothing: %+v", wantStats)
	}
	if gotStats != wantStats {
		t.Fatalf("rebalance books %+v, want %+v", gotStats, wantStats)
	}
	if len(got) != len(want) {
		t.Fatalf("%d shard images, want %d", len(got)/2, len(want)/2)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("shard %d %s differs from the fresh-rows run", i/2, [2]string{"log", "snapshot"}[i%2])
		}
	}
}
