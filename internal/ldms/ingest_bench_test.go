package ldms

import (
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// BenchmarkIngestRound times dsosd's store hop per event: 64-record
// stored batches of benchmark-shaped events, each committed as one round
// by the store cursor (Cursor.Commit) through DedupStore and DSOSStore
// into a 4-shard cluster that logs to memory. Appending the batches is
// left out of the timing. Run it with -benchmem: B/op and allocs/op are
// per event.
func BenchmarkIngestRound(b *testing.B) {
	frames := genFrames(2022, 64*RoundSize, RoundSize)
	last := map[string]uint64{} // each producer's highest sequence in frames
	for _, f := range frames {
		for _, m := range f {
			last[m.Producer] = max(last[m.Producer], m.Seq)
		}
	}
	s, err := streams.OpenStream(streams.StreamConfig{
		Name: "ingest", Retention: streams.RetentionPolicy{MaxMsgs: 16 * RoundSize},
	}, sos.NewMemWAL())
	if err != nil {
		b.Fatal(err)
	}
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		b.Fatal(err)
	}
	cur := NewStoreCursor(cons)
	c := dsos.NewCluster(4, "darshan_data")
	c.EnableWAL(nil)
	if err := dsos.SetupDarshan(c); err != nil {
		b.Fatal(err)
	}
	store := NewDedupStore(NewDSOSStore(dsos.Connect(c)))
	dead := func(err error) { b.Fatal(err) }
	batch := make([]streams.Message, RoundSize)
	b.ReportAllocs()
	b.ResetTimer()
	for done, k := 0, 0; done < b.N; done, k = done+RoundSize, k+1 {
		b.StopTimer()
		// A fresh identity per event, each producer's still contiguous:
		// every round is stored, none absorbed.
		for i, m := range frames[k%len(frames)] {
			m.Seq += last[m.Producer] * uint64(k/len(frames))
			batch[i] = m
		}
		if _, err := s.AppendBatch(batch); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if msgs, _, err := cur.Next(); err != nil || len(msgs) != RoundSize {
			b.Fatalf("round of %d (%v), want %d", len(msgs), err, RoundSize)
		}
		if err := cur.Commit(store, dead); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if got := store.Stored(); got < uint64(b.N) {
		b.Fatalf("%d events stored, want %d", got, b.N)
	}
}
