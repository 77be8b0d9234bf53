package streams

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

func seqsOf(ds []Delivery) []uint64 {
	out := make([]uint64, len(ds))
	for i, d := range ds {
		out[i] = d.Seq
	}
	return out
}

func TestConsumerFetchAckFloor(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "s"}, nil)
	for i := 0; i < 5; i++ {
		mustAppend(t, s, "t", fmt.Sprintf("m%d", i))
	}
	c, err := s.Consumer(ConsumerConfig{Name: "c"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(3)
	if err != nil || len(ds) != 3 {
		t.Fatalf("fetch: %v %v", ds, err)
	}
	// Out-of-order acks: the floor advances only over the contiguous
	// settled prefix.
	if err := c.Ack(2); err != nil {
		t.Fatal(err)
	}
	if c.AckFloor() != 0 {
		t.Fatalf("floor %d after acking 2 only", c.AckFloor())
	}
	if err := c.Ack(1); err != nil {
		t.Fatal(err)
	}
	if c.AckFloor() != 2 {
		t.Fatalf("floor %d, want 2", c.AckFloor())
	}
	if err := c.Ack(3); err != nil {
		t.Fatal(err)
	}
	if c.AckFloor() != 3 {
		t.Fatalf("floor %d, want 3", c.AckFloor())
	}
	if pending := c.s.lastSeq - c.floor; pending != 2 {
		t.Fatalf("pending %d, want 2", pending)
	}
	// Idempotent ack below floor; unknown seq is an error.
	if err := c.Ack(1); err != nil {
		t.Fatalf("re-ack below floor: %v", err)
	}
	if err := c.Ack(99); !errors.Is(err, ErrNotInflight) {
		t.Fatalf("ack of undelivered seq: %v", err)
	}
}

func TestConsumerRedeliveryAfterDeadline(t *testing.T) {
	clk := &testClock{}
	s := mustOpenStream(t, StreamConfig{Name: "s", Clock: clk.fn()}, nil)
	mustAppend(t, s, "t", "m")
	c, _ := s.Consumer(ConsumerConfig{Name: "c", AckWait: 10 * time.Second})
	ds, _ := c.Fetch(1)
	if len(ds) != 1 || ds[0].Deliveries != 1 {
		t.Fatalf("first fetch %+v", ds)
	}
	// Before the deadline: nothing to redeliver, window holds it.
	clk.Advance(9 * time.Second)
	if ds, _ := c.Fetch(1); len(ds) != 0 {
		t.Fatalf("redelivered before deadline: %+v", ds)
	}
	clk.Advance(2 * time.Second)
	ds, _ = c.Fetch(1)
	if len(ds) != 1 || ds[0].Deliveries != 2 {
		t.Fatalf("redelivery %+v", ds)
	}
	st := c.Stats()
	if st.Delivered != 1 || st.Redelivered != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConsumerBackoffCapped(t *testing.T) {
	clk := &testClock{}
	s := mustOpenStream(t, StreamConfig{Name: "s", Clock: clk.fn()}, nil)
	mustAppend(t, s, "t", "m")
	c, _ := s.Consumer(ConsumerConfig{Name: "c", AckWait: time.Second})
	// Deadlines double per delivery — 1s, 2s, 4s, 8s — then stay capped
	// at 8 x AckWait.
	waits := []time.Duration{time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 8 * time.Second, 8 * time.Second}
	if ds, _ := c.Fetch(1); len(ds) != 1 {
		t.Fatal("first fetch")
	}
	for i, w := range waits {
		clk.Advance(w - 1)
		if ds, _ := c.Fetch(1); len(ds) != 0 {
			t.Fatalf("round %d: redelivered %v early (backoff %v)", i, seqsOf(ds), w)
		}
		clk.Advance(1)
		ds, _ := c.Fetch(1)
		if len(ds) != 1 || ds[0].Deliveries != i+2 {
			t.Fatalf("round %d: %+v", i, ds)
		}
	}
}

func TestConsumerNakImmediateRedelivery(t *testing.T) {
	clk := &testClock{}
	s := mustOpenStream(t, StreamConfig{Name: "s", Clock: clk.fn()}, nil)
	mustAppend(t, s, "t", "m")
	c, _ := s.Consumer(ConsumerConfig{Name: "c", AckWait: time.Hour})
	ds, _ := c.Fetch(1)
	if err := c.Nak(ds[0].Seq); err != nil {
		t.Fatal(err)
	}
	ds, _ = c.Fetch(1)
	if len(ds) != 1 || ds[0].Deliveries != 2 {
		t.Fatalf("nak did not redeliver: %+v", ds)
	}
	if err := c.Nak(99); !errors.Is(err, ErrNotInflight) {
		t.Fatalf("nak of undelivered seq: %v", err)
	}
	if st := c.Stats(); st.Naks != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConsumerMaxInflightWindow(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "s"}, nil)
	for i := 0; i < 10; i++ {
		mustAppend(t, s, "t", "m")
	}
	c, _ := s.Consumer(ConsumerConfig{Name: "c", MaxInflight: 3, AckWait: time.Hour})
	ds, _ := c.Fetch(100)
	if len(ds) != 3 {
		t.Fatalf("window ignored: got %d deliveries", len(ds))
	}
	// Window full: nothing new until an ack frees a slot.
	if ds2, _ := c.Fetch(100); len(ds2) != 0 {
		t.Fatalf("overfilled window: %v", seqsOf(ds2))
	}
	if err := c.Ack(1); err != nil {
		t.Fatal(err)
	}
	ds3, _ := c.Fetch(100)
	if len(ds3) != 1 || ds3[0].Seq != 4 {
		t.Fatalf("freed slot delivered %v", seqsOf(ds3))
	}
	if st := c.Stats(); st.Inflight != 3 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConsumerCursorSurvivesCrash(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "s"}
	s := mustOpenStream(t, cfg, wal)
	for i := 0; i < 6; i++ {
		mustAppend(t, s, "t", fmt.Sprintf("m%d", i))
	}
	c, _ := s.Consumer(ConsumerConfig{Name: "c"})
	ds, _ := c.Fetch(4)
	for _, d := range ds[:3] {
		if err := c.Ack(d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	// Crash: both the stream object and the consumer are lost; only the
	// segment bytes survive. Seq 4 was delivered but never acked.
	s2 := mustOpenStream(t, cfg, wal)
	c2, _ := s2.Consumer(ConsumerConfig{Name: "c"})
	if c2.AckFloor() != 3 {
		t.Fatalf("resumed floor %d, want 3", c2.AckFloor())
	}
	ds2, _ := c2.Fetch(10)
	// At-least-once: the unacked seq 4 comes again (as a fresh delivery —
	// the inflight state died with the process), then 5 and 6.
	want := []uint64{4, 5, 6}
	got := seqsOf(ds2)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("resumed deliveries %v, want %v", got, want)
	}
}

func TestConsumerReplayFromStartSeq(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "s"}, nil)
	for i := 0; i < 5; i++ {
		mustAppend(t, s, "t", fmt.Sprintf("m%d", i))
	}
	// A late joiner replays history from its chosen starting sequence.
	c, _ := s.Consumer(ConsumerConfig{Name: "late", StartSeq: 3})
	if got := seqsOf(mustFetch(t, c, 10)); len(got) != 3 || got[0] != 3 {
		t.Fatalf("late joiner got %v, want [3 4 5]", got)
	}
	// StartSeq past the head starts at the tail (nothing to fetch yet).
	c2, _ := s.Consumer(ConsumerConfig{Name: "future", StartSeq: 100})
	if got := mustFetch(t, c2, 10); len(got) != 0 {
		t.Fatalf("future joiner got %v", seqsOf(got))
	}
	mustAppend(t, s, "t", "next")
	if got := seqsOf(mustFetch(t, c2, 10)); len(got) != 1 || got[0] != 6 {
		t.Fatalf("future joiner got %v, want [6]", got)
	}
	// StartSeq is ignored when a durable cursor exists.
	c3, _ := s.Consumer(ConsumerConfig{Name: "late", StartSeq: 1})
	if c3.AckFloor() != 2 {
		t.Fatalf("durable cursor overridden: floor %d", c3.AckFloor())
	}
}

func mustFetch(t *testing.T, c *Consumer, max int) []Delivery {
	t.Helper()
	ds, err := c.Fetch(max)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestConsumerLagPastRetention(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{
		Name: "s", Retention: RetentionPolicy{MaxMsgs: 3},
	}, nil)
	mustAppend(t, s, "t", "m1")
	c, _ := s.Consumer(ConsumerConfig{Name: "slow"})
	// The consumer sleeps while retention evicts its future reading.
	for i := 2; i <= 10; i++ {
		mustAppend(t, s, "t", fmt.Sprintf("m%d", i))
	}
	ds := mustFetch(t, c, 100)
	// Seqs 1..7 are gone (counted as missed); 8..10 are deliverable.
	if got := seqsOf(ds); len(got) != 3 || got[0] != 8 {
		t.Fatalf("lagged fetch %v, want [8 9 10]", got)
	}
	st := c.Stats()
	if st.Missed != 7 {
		t.Fatalf("stats %+v, want Missed 7", st)
	}
	// The gap is settled: acking what was delivered drains the floor.
	for _, d := range ds {
		if err := c.Ack(d.Seq); err != nil {
			t.Fatal(err)
		}
	}
	if c.AckFloor() != 10 {
		t.Fatalf("floor %d, want 10", c.AckFloor())
	}
}

func TestConsumerInflightEvictedByRetention(t *testing.T) {
	clk := &testClock{}
	s := mustOpenStream(t, StreamConfig{
		Name: "s", Clock: clk.fn(), Retention: RetentionPolicy{MaxMsgs: 2},
	}, nil)
	mustAppend(t, s, "t", "m1")
	c, _ := s.Consumer(ConsumerConfig{Name: "c", AckWait: time.Second})
	if ds := mustFetch(t, c, 1); len(ds) != 1 {
		t.Fatal("first fetch")
	}
	// While seq 1 is inflight, retention evicts it.
	for i := 0; i < 4; i++ {
		mustAppend(t, s, "t", "later")
	}
	clk.Advance(2 * time.Second) // its deadline passes
	ds := mustFetch(t, c, 10)
	// The evicted inflight is settled (missed), not redelivered; the
	// retained window is delivered instead.
	for _, d := range ds {
		if d.Seq == 1 {
			t.Fatal("evicted message redelivered")
		}
	}
	st := c.Stats()
	if st.Missed < 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestConsumerReplaceOnReclaim(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "s"}, nil)
	mustAppend(t, s, "t", "m")
	c1, _ := s.Consumer(ConsumerConfig{Name: "c"})
	c2, _ := s.Consumer(ConsumerConfig{Name: "c"}) // successor claims the name
	if _, err := c1.Fetch(1); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("replaced consumer still alive: %v", err)
	}
	if ds := mustFetch(t, c2, 1); len(ds) != 1 {
		t.Fatal("successor fetch")
	}
	c2.Close()
	if _, err := c2.Fetch(1); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("closed consumer fetch: %v", err)
	}
	if err := c2.Ack(1); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("closed consumer ack: %v", err)
	}
	if err := c2.Nak(1); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("closed consumer nak: %v", err)
	}
	if _, err := s.Consumer(ConsumerConfig{}); err == nil {
		t.Fatal("nameless consumer accepted")
	}
	if _, err := c2.Fetch(0); err == nil {
		t.Fatal("zero-max fetch accepted")
	}
}

func TestConsumerStatsAndNames(t *testing.T) {
	s := mustOpenStream(t, StreamConfig{Name: "s"}, nil)
	mustAppend(t, s, "t", "m1")
	mustAppend(t, s, "t", "m2")
	c, _ := s.Consumer(ConsumerConfig{Name: "live"})
	ds := mustFetch(t, c, 1)
	if err := c.Ack(ds[0].Seq); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// A durable cursor with no live consumer still reports floor and lag.
	names := s.consumerNamesLocked()
	if len(names) != 1 || names[0] != "live" {
		t.Fatalf("names %v", names)
	}
	all := s.ConsumerStats()
	if len(all) != 1 || all[0].AckFloor != 1 || all[0].Lag != 1 {
		t.Fatalf("consumer stats %+v", all)
	}
	if c.Name() != "live" {
		t.Fatal("name")
	}
}
