package dsos

import (
	"fmt"
	"reflect"
	"testing"

	"darshanldms/internal/jsonmsg"
)

func arenaSample(seq uint64) *jsonmsg.Message {
	return &jsonmsg.Message{
		UID: 99066, Exe: "/projects/hacc/hacc-io", JobID: int64(seq % 3), Rank: int(seq % 16),
		ProducerName: "nid00040", File: "/lscratch/out.dat", RecordID: 9,
		Module: "POSIX", Type: jsonmsg.TypeMOD, MaxByte: int64(seq)*4096 - 1,
		Switches: 1, Flushes: 2, Cnt: 3, Op: "write",
		Seg: []jsonmsg.Segment{
			{
				DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
				NDims: -1, NPoints: -1, Off: int64(seq) * 4096, Len: 4096,
				Dur: 0.000125, Timestamp: 1.6e9 + float64(seq),
			},
			{
				DataSet: "temperature", PtSel: 1, IrregHSlab: 0, RegHSlab: 2,
				NDims: 3, NPoints: 1024, Off: int64(seq)*4096 + 4096, Len: 8192,
				Dur: 0.0025, Timestamp: 1.6e9 + float64(seq) + 0.5,
			},
		},
		Seq: seq,
	}
}

// TestRowArenaMatchesAppendObjects: the arena must produce rows
// value-identical to the legacy builder, across enough messages to fill
// the arena's string table more than once.
func TestRowArenaMatchesAppendObjects(t *testing.T) {
	a := NewRowArena()
	for seq := uint64(0); seq < 6000; seq++ {
		m := arenaSample(seq)
		m.File = fmt.Sprintf("/lscratch/out.%d.dat", seq) // a new string per message
		want := rowValues(AppendObjects(nil, m))
		got := rowValues(a.AppendObjects(nil, m))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seq %d: arena rows diverge from legacy builder:\n got %v\nwant %v", seq, got, want)
		}
	}
}

// TestRowArenaRowsAreIndependent: rows built from one message must not
// alias rows built from the next (the arena carves capacity-capped
// windows, never reuses a row in place).
func TestRowArenaRowsAreIndependent(t *testing.T) {
	a := NewRowArena()
	first := a.AppendObjects(nil, arenaSample(1))
	snapshot := first[0].Values()
	for seq := uint64(2); seq < 6000; seq++ {
		m := arenaSample(seq)
		m.File = fmt.Sprintf("/lscratch/out.%d.dat", seq)
		a.AppendObjects(nil, m)
	}
	if !reflect.DeepEqual(first[0].Values(), snapshot) {
		t.Fatalf("row from message 1 changed after later appends:\n got %v\nwant %v", first[0], snapshot)
	}
}

// TestRowArenaRowsInsertCleanly: arena-built rows must satisfy the
// Darshan schema end to end, and batch insertion must land them with the
// same shard placement as the legacy path.
func TestRowArenaRowsInsertCleanly(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	a := NewRowArena()
	rows := a.AppendObjects(nil, arenaSample(7))
	if err := cl.InsertBatch(DarshanSchemaName, rows); err != nil {
		t.Fatalf("arena rows rejected by schema: %v", err)
	}
	if got := cl.Count(DarshanSchemaName); got != len(rows) {
		t.Fatalf("stored %d rows, want %d", got, len(rows))
	}
}
