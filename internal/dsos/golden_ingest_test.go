package dsos_test

import (
	"reflect"
	"sync/atomic"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// goldenMessages builds a seeded stream of connector-shaped messages with
// the same source quantization FromEvent applies (Quant6 on the float
// fields), so the typed path and the JSON round-trip path start from the
// exact values the real connector emits.
func goldenMessages(n int) []*jsonmsg.Message {
	r := rng.New(2022)
	ops := []string{"write", "read", "open", "close"}
	msgs := make([]*jsonmsg.Message, 0, n)
	for i := 0; i < n; i++ {
		msgs = append(msgs, &jsonmsg.Message{
			UID: 99066, Exe: "/projects/hacc/hacc-io", JobID: int64(1 + r.Intn(3)),
			Rank: r.Intn(16), ProducerName: "nid00040", File: "/lscratch/out.dat",
			RecordID: uint64(r.Intn(9)), Module: "POSIX", Type: jsonmsg.TypeMOD,
			MaxByte: int64(r.Intn(1 << 20)), Switches: int64(r.Intn(2)),
			Flushes: int64(r.Intn(3)), Cnt: 1, Op: ops[r.Intn(len(ops))],
			Seg: []jsonmsg.Segment{{
				DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
				NDims: -1, NPoints: -1, Off: int64(i) * 4096, Len: int64(4096 * (1 + r.Intn(4))),
				Dur:       jsonmsg.Quant6(r.Float64() * 0.01),
				Timestamp: jsonmsg.Quant6(1.6e9 + float64(i)*0.25 + r.Float64()),
			}},
			Seq: uint64(i + 1),
		})
	}
	return msgs
}

// values returns each row's Values, for comparing rows by value.
func values(objs []sos.Object) [][]any {
	out := make([][]any, len(objs))
	for i, o := range objs {
		out[i] = o.Values()
	}
	return out
}

func newGoldenCluster(t *testing.T, n, repl int) (*dsos.Cluster, *dsos.Client) {
	t.Helper()
	c := dsos.NewCluster(n, "darshan_data")
	if repl > 1 {
		c.SetReplication(repl)
	}
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	return c, dsos.Connect(c)
}

// TestGoldenIngestTypedMatchesParsePath pins the satellite contract: rows
// stored by the typed message plane (lazy records, AppendObjects,
// InsertBatch through ldms.DSOSStore) are bit-identical — same values,
// same shard placement — to rows from the old path that JSON-encoded at
// the connector and jsonmsg.Parse'd at the store.
func TestGoldenIngestTypedMatchesParsePath(t *testing.T) {
	for _, repl := range []int{1, 2} {
		msgs := goldenMessages(200)

		// Old pipeline: eager encode at the connector, parse at the store,
		// one Insert per object.
		oldC, oldCl := newGoldenCluster(t, 4, repl)
		for _, m := range msgs {
			payload := jsonmsg.FastEncoder{}.Encode(m)
			parsed, err := jsonmsg.Parse(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, obj := range dsos.ObjectsFromMessage(parsed) {
				if err := oldCl.Insert(dsos.DarshanSchemaName, obj); err != nil {
					t.Fatal(err)
				}
			}
		}

		// New pipeline: typed records through the real DSOS store plugin —
		// no JSON is ever produced.
		newC, newCl := newGoldenCluster(t, 4, repl)
		store := ldms.NewDSOSStore(newCl)
		var encoded atomic.Uint64
		for _, m := range msgs {
			sm := streams.Message{
				Tag: "darshanConnector", Type: streams.TypeJSON,
				Record:   event.NewRecord(m, jsonmsg.FastEncoder{}).CountEncodes(&encoded),
				Producer: m.ProducerName, Seq: m.Seq,
			}
			if err := store.Store(sm); err != nil {
				t.Fatal(err)
			}
			if encoded.Load() != 0 {
				t.Fatalf("DSOS ingest forced a JSON encode (repl=%d)", repl)
			}
		}

		if oldCl.Count(dsos.DarshanSchemaName) != newCl.Count(dsos.DarshanSchemaName) {
			t.Fatalf("repl=%d: counts differ: old %d, new %d", repl,
				oldCl.Count(dsos.DarshanSchemaName), newCl.Count(dsos.DarshanSchemaName))
		}
		// Per-daemon object-for-object identity: same values AND the same
		// round-robin shard placement.
		oldD, newD := oldC.Daemons(), newC.Daemons()
		for i := range oldD {
			a, err := oldD[i].Container().Range("job_rank_time", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := newD[i].Container().Range("job_rank_time", nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(values(a), values(b)) {
				t.Fatalf("repl=%d: daemon %d rows differ (old %d, new %d objects)",
					repl, i, len(a), len(b))
			}
		}
		// Query results through the indexed path must match too.
		qa, err := oldCl.Query("job_rank_time", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		qb, err := newCl.Query("job_rank_time", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(values(qa), values(qb)) {
			t.Fatalf("repl=%d: indexed query results differ", repl)
		}
	}
}
