package streams_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func typedRun(tag string, from, n int) []streams.Message {
	out := make([]streams.Message, n)
	for i := range out {
		seq := uint64(from + i)
		out[i] = streams.Message{Tag: tag, Type: streams.TypeJSON,
			Record: event.NewRecord(sampleFields(seq), jsonmsg.FastEncoder{}), Producer: "nid00046", Seq: seq}
	}
	return out
}

func walBytes(t testing.TB, w *sos.MemWAL) []byte {
	t.Helper()
	r, err := w.Open()
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

// boundBus returns a bus binding a fresh stream on a memory segment.
func boundBus(t testing.TB) (*streams.Bus, *streams.DurableStream, *sos.MemWAL) {
	t.Helper()
	wal := sos.NewMemWAL()
	s, err := streams.OpenStream(streams.StreamConfig{Name: "darshan"}, wal)
	if err != nil {
		t.Fatal(err)
	}
	b := streams.NewBus()
	if err := b.BindStream(s); err != nil {
		t.Fatal(err)
	}
	return b, s, wal
}

// TestPublishBodyMatchesPublishBatch: a body PublishBody appends as it
// stands leaves the segment, the window and the bus counters exactly as
// PublishBatch leaves them for the decoded messages; every body it
// cannot take that way is refused and changes nothing.
func TestPublishBodyMatchesPublishBatch(t *testing.T) {
	msgs := append(typedRun("darshan.n.posix", 1, 3), streams.Message{
		Tag: "darshan.n.posix", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 9})
	body := streams.AppendRecords(nil, msgs)

	vb, vs, vwal := boundBus(t)
	if n, ok := vb.PublishBody(streams.BodyV2, body, nil, "!skip"); !ok || n != len(msgs) {
		t.Fatalf("PublishBody = %d, %v; want %d, true", n, ok, len(msgs))
	}
	db, ds, dwal := boundBus(t)
	db.PublishBatch(msgs)
	if got, want := walBytes(t, vwal), walBytes(t, dwal); !bytes.Equal(got, want) {
		t.Fatalf("segment differs: body path % x, decode path % x", got, want)
	}
	if vs.Stats() != ds.Stats() || vb.Stats("darshan.n.posix") != db.Stats("darshan.n.posix") {
		t.Fatalf("stats differ: %+v %+v / %+v %+v", vs.Stats(), vb.Stats("darshan.n.posix"), ds.Stats(), db.Stats("darshan.n.posix"))
	}

	refused := []struct {
		name    string
		version byte
		body    []byte
		prep    func(*streams.Bus)
	}{
		{"version 1", streams.BodyV1, body, nil},
		{"mixed tags", streams.BodyV2, streams.AppendRecords(nil, append(typedRun("a", 1, 1), typedRun("b", 2, 1)...)), nil},
		{"skipped tag", streams.BodyV2, streams.AppendRecords(nil, typedRun("!skip", 1, 2)), nil},
		{"subscribed tag", streams.BodyV2, body, func(b *streams.Bus) { b.Subscribe("darshan.*.posix", func(streams.Message) {}) }},
		{"no stream bound", streams.BodyV2, body, func(b *streams.Bus) { b.UnbindStream("darshan") }},
		{"truncated", streams.BodyV2, body[:len(body)-1], nil},
		{"trailing byte", streams.BodyV2, append(body[:len(body):len(body)], 0), nil},
	}
	for _, tc := range refused {
		t.Run(tc.name, func(t *testing.T) {
			b, s, wal := boundBus(t)
			if tc.prep != nil {
				tc.prep(b)
			}
			if n, ok := b.PublishBody(tc.version, tc.body, nil, "!skip"); ok || n != 0 {
				t.Fatalf("PublishBody = %d, %v; want a refusal", n, ok)
			}
			if st := s.Stats(); st.Appended != 0 || st.Bytes != 0 || wal.Len() != 0 {
				t.Fatalf("a refused body reached the stream: %+v, %d segment bytes", st, wal.Len())
			}
			if st := b.Stats("darshan.n.posix"); st.Published != 0 {
				t.Fatalf("a refused body was counted: %+v", st)
			}
		})
	}
}

// TestFetchBodies: a run that is one whole stored batch comes back as the
// body it is stored as, every other run decoded as Fetch decodes it.
func TestFetchBodies(t *testing.T) {
	s := openStream(t, sos.NewMemWAL())
	batches := [][]streams.Message{typedRun("t", 1, 3), typedRun("t", 4, 1), typedRun("t", 5, 2)}
	for _, b := range batches {
		if _, err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Consumer(streams.ConsumerConfig{Name: "whole"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.FetchBodies(64)
	if err != nil || len(ds) != 6 {
		t.Fatalf("FetchBodies: %d deliveries, %v", len(ds), err)
	}
	for i, first := range []int{0, 3, 4} {
		if want := streams.AppendRecords(nil, batches[i]); !bytes.Equal(ds[first].Body, want) {
			t.Errorf("batch %d: body % x, want % x", i, ds[first].Body, want)
		}
	}
	for i, d := range ds {
		if d.Msg.Tag != "" || (d.Body != nil) != (i == 0 || i == 3 || i == 4) {
			t.Errorf("delivery %d: tag %q, body %d bytes", i, d.Msg.Tag, len(d.Body))
		}
	}

	// Cut by the round: seqs 1-2 and then 3 are parts of batch 1, decoded;
	// seq 4 is whole.
	c2, err := s.Consumer(streams.ConsumerConfig{Name: "cut"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"decoded", "decoded"}, {"decoded", "body"}}
	for round, kinds := range want {
		ds, err := c2.FetchBodies(2)
		if err != nil || len(ds) != 2 {
			t.Fatalf("round %d: %d deliveries, %v", round+1, len(ds), err)
		}
		for i, d := range ds {
			got := "decoded"
			if d.Body != nil {
				got = "body"
			} else if d.Msg.Tag != "t" || d.Msg.Seq != d.Seq {
				t.Errorf("round %d delivery %d decoded as %+v", round+1, i, d.Msg)
			}
			if got != kinds[i] {
				t.Errorf("round %d delivery %d (seq %d): %s, want %s", round+1, i, d.Seq, got, kinds[i])
			}
		}
		if err := c2.AckBatch(ds); err != nil {
			t.Fatal(err)
		}
	}
}

// BenchmarkReopen times a stream's reopen: the replay of a segment of
// 64-record batches of typed records, as ldmsd and dsosd restart on.
func BenchmarkReopen(b *testing.B) {
	const events, per = 64 * 64, 64
	wal := sos.NewMemWAL()
	s, err := streams.OpenStream(streams.StreamConfig{Name: "darshan"}, wal)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < events; i += per {
		if _, err := s.AppendBatch(typedRun(fmt.Sprintf("darshan.%d", i%3), i+1, per)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := streams.OpenStream(streams.StreamConfig{Name: "darshan"}, wal)
		if err != nil || r.Stats().Msgs != events {
			b.Fatalf("reopen: %v", err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
	b.ReportMetric(float64(testing.AllocsPerRun(1, func() { _, _ = streams.OpenStream(streams.StreamConfig{Name: "darshan"}, wal) }))/events, "allocs/event")
}

// TestPublishBodyConcurrent: receive connections publish bodies into one
// bus at once, sharing its walk scratch and its stream; every message
// lands once and decodes back to what was sent.
func TestPublishBodyConcurrent(t *testing.T) {
	b, s, _ := boundBus(t)
	const senders, bodies, per = 4, 25, 8
	done := make(chan struct{})
	for g := 0; g < senders; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < bodies; i++ {
				body := streams.AppendRecords(nil, typedRun("t", 1+(g*bodies+i)*per, per))
				if _, ok := b.PublishBody(streams.BodyV2, body, nil, ""); !ok {
					t.Error("PublishBody refused a valid body")
				}
			}
		}(g)
	}
	for g := 0; g < senders; g++ {
		<-done
	}
	const n = senders * bodies * per
	c, err := s.Consumer(streams.ConsumerConfig{Name: "all", MaxInflight: n})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(n)
	if err != nil || len(ds) != n {
		t.Fatalf("fetched %d of %d: %v", len(ds), n, err)
	}
	seen := map[uint64]bool{}
	for _, d := range ds {
		want := streams.AppendRecords(nil, typedRun("t", int(d.Msg.Seq), 1))
		if got := streams.AppendRecords(nil, []streams.Message{d.Msg}); !bytes.Equal(got, want) || seen[d.Msg.Seq] {
			t.Fatalf("seq %d: delivered % x, want % x (seen before: %v)", d.Msg.Seq, got, want, seen[d.Msg.Seq])
		}
		seen[d.Msg.Seq] = true
	}
}
