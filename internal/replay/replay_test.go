package replay

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/streams"
)

func seeded(t *testing.T) *dsos.Client {
	t.Helper()
	c := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	cl := dsos.Connect(c)
	for i := 0; i < 40; i++ {
		op := "write"
		if i%4 == 0 {
			op = "read"
		}
		m := jsonmsg.Message{
			UID: 1, Exe: jsonmsg.NA, JobID: 5, Rank: i % 4, ProducerName: "nid00040",
			File: jsonmsg.NA, RecordID: 7, Module: "POSIX", Type: jsonmsg.TypeMOD, Op: op,
			Seg: []jsonmsg.Segment{{
				DataSet: jsonmsg.NA, Len: 4096, Dur: 0.01,
				Timestamp: 1.6e9 + float64(i)*0.05,
			}},
		}
		for _, o := range dsos.ObjectsFromMessage(&m) {
			if err := cl.Insert(dsos.DarshanSchemaName, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	return cl
}

func TestReplayDeliversAllInOrder(t *testing.T) {
	cl := seeded(t)
	bus := streams.NewBus()
	var stamps []float64
	bus.Subscribe("darshanConnector", func(m streams.Message) {
		msg, err := jsonmsg.Parse(m.Data)
		if err != nil {
			t.Errorf("replayed message unparseable: %v", err)
			return
		}
		stamps = append(stamps, msg.Seg[0].Timestamp)
	})
	st, err := Job(context.Background(), cl, 5, bus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 40 || len(stamps) != 40 {
		t.Fatalf("events %d delivered %d", st.Events, len(stamps))
	}
	for i := 1; i < len(stamps); i++ {
		if stamps[i] < stamps[i-1] {
			t.Fatal("replay out of timestamp order")
		}
	}
	if st.Span < 1.9 || st.Span > 2.0 {
		t.Fatalf("span %v", st.Span)
	}
}

func TestReplayRoundTripsIntoStore(t *testing.T) {
	// Replaying into a fresh store must reproduce the original contents —
	// the analysis pipeline regression-test use case.
	src := seeded(t)
	dstCluster := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(dstCluster); err != nil {
		t.Fatal(err)
	}
	dst := dsos.Connect(dstCluster)
	d := ldms.NewDaemon("agg", "head")
	d.AttachStore("darshanConnector", ldms.NewDSOSStore(dst))
	if _, err := Job(context.Background(), src, 5, d.Bus(), Options{}); err != nil {
		t.Fatal(err)
	}
	if dst.Count(dsos.DarshanSchemaName) != 40 {
		t.Fatalf("destination has %d", dst.Count(dsos.DarshanSchemaName))
	}
	a, _ := src.Query("job_rank_time", nil, nil)
	b, _ := dst.Query("job_rank_time", nil, nil)
	if len(a) != len(b) {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if av, bv := a[i].Values(), b[i].Values(); !reflect.DeepEqual(av, bv) {
			t.Fatalf("row %d: %v vs %v", i, av, bv)
		}
	}
}

func TestReplayPacing(t *testing.T) {
	cl := seeded(t)
	bus := streams.NewBus()
	bus.Subscribe("darshanConnector", func(streams.Message) {})
	// Span is ~1.95s; at 100x speedup the replay should take ~20ms.
	start := time.Now()
	st, err := Job(context.Background(), cl, 5, bus, Options{Speedup: 100})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("paced replay took %v (span %.2fs)", elapsed, st.Span)
	}
}

func TestReplayCancel(t *testing.T) {
	cl := seeded(t)
	bus := streams.NewBus()
	bus.Subscribe("darshanConnector", func(streams.Message) {})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	// Speedup 0.01: would take minutes; must abort on ctx.
	_, err := Job(ctx, cl, 5, bus, Options{Speedup: 0.01})
	if err == nil {
		t.Fatal("expected context error")
	}
}

func TestReplayUnknownJob(t *testing.T) {
	cl := seeded(t)
	if _, err := Job(context.Background(), cl, 404, streams.NewBus(), Options{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestReplayLargestJob: the largest job id has no job+1 to bound its scan
// by; its events still replay.
func TestReplayLargestJob(t *testing.T) {
	cl := seeded(t)
	m := jsonmsg.Message{
		JobID: math.MaxInt64, Exe: jsonmsg.NA, ProducerName: "nid00040", File: jsonmsg.NA,
		Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
		Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 1, Timestamp: 1.6e9}},
	}
	if err := cl.InsertBatch(dsos.DarshanSchemaName, dsos.ObjectsFromMessage(&m)); err != nil {
		t.Fatal(err)
	}
	bus := streams.NewBus()
	bus.Subscribe("darshanConnector", func(streams.Message) {})
	st, err := Job(context.Background(), cl, math.MaxInt64, bus, Options{})
	if err != nil || st.Events != 1 {
		t.Fatalf("replayed %v, %v; want 1 event", st, err)
	}
}
