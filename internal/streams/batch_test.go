package streams

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/sos"
)

// failingWAL refuses writes while fail is set.
type failingWAL struct {
	*sos.MemWAL
	fail bool
}

func (f *failingWAL) Write(p []byte) (int, error) {
	if f.fail {
		return 0, io.ErrShortWrite
	}
	return f.MemWAL.Write(p)
}

// TestPublishBatchAccounting: PublishBatch keeps Publish's books per tag —
// Published/Delivered/Errored/Dropped disjoint — feeds each bound stream
// one batch per same-tag run before any handler sees the run, and a
// failed batch append counts every message of it Errored and none as
// received.
func TestPublishBatchAccounting(t *testing.T) {
	b := NewBus()
	good := &countingWAL{MemWAL: sos.NewMemWAL()}
	posix := mustOpenStream(t, StreamConfig{Name: "a-posix", Subjects: []string{"darshan.*.posix"}}, good)
	bad := &failingWAL{MemWAL: sos.NewMemWAL()}
	all := mustOpenStream(t, StreamConfig{Name: "b-all", Subjects: []string{"darshan.>"}}, bad)
	for _, s := range []*DurableStream{posix, all} {
		if err := b.BindStream(s); err != nil {
			t.Fatal(err)
		}
	}
	var seen []string
	var headAtFirstDelivery uint64
	b.Subscribe("darshan.n.posix", func(m Message) {
		if len(seen) == 0 {
			headAtFirstDelivery = posix.Stats().LastSeq
		}
		seen = append(seen, string(m.Data))
	})
	b.Subscribe("darshan.n.mpiio", func(Message) { panic("broken subscriber") })

	msg := func(tag, data string) Message { return Message{Tag: tag, Type: TypeString, Data: []byte(data)} }
	batch := []Message{
		msg("darshan.n.posix", "p1"), msg("darshan.n.posix", "p2"), msg("darshan.n.posix", "p3"),
		msg("darshan.n.mpiio", "m1"),
		msg("darshan.n.posix", "p4"),
		msg("other", "o1"),
	}
	bad.fail = true
	got := b.PublishBatch(batch)

	// posix: stream a-posix ok + handler ok = 2 receivers each; b-all failed.
	// mpiio: b-all failed, handler panicked: no receiver. other: nothing at all.
	if got != 8 {
		t.Fatalf("PublishBatch returned %d receivers, want 8", got)
	}
	want := map[string]Stats{
		"darshan.n.posix": {Published: 4, Delivered: 8, Errored: 4},
		"darshan.n.mpiio": {Published: 1, Errored: 2, Dropped: 1},
		"other":           {Published: 1, Dropped: 1},
	}
	for tag, w := range want {
		if st := b.Stats(tag); st != w {
			t.Errorf("tag %s: stats %+v, want %+v", tag, st, w)
		}
	}
	// Two posix runs (p1..p3, then p4 behind the mpiio message): two
	// segment writes for four messages.
	if good.writes != 2 || posix.Stats().LastSeq != 4 {
		t.Fatalf("stream a-posix took %d writes for %d messages, want 2 batches holding 4", good.writes, posix.Stats().LastSeq)
	}
	if all.Stats().LastSeq != 0 {
		t.Fatalf("failed batch appends left %d messages in b-all", all.Stats().LastSeq)
	}
	if headAtFirstDelivery != 3 || len(seen) != 4 || seen[0] != "p1" || seen[3] != "p4" {
		t.Fatalf("handlers ran before the stream had their run (head %d) or out of order (%v)", headAtFirstDelivery, seen)
	}

	// The same batch with the store healthy: b-all gets every darshan
	// message, in publish order.
	bad.fail = false
	if got := b.PublishBatch(batch); got != 8+5 {
		t.Fatalf("second PublishBatch returned %d receivers, want 13", got)
	}
	c, _ := all.Consumer(ConsumerConfig{Name: "r"})
	ds := drain(t, c)
	if len(ds) != 5 || string(ds[3].Msg.Data) != "m1" || string(ds[4].Msg.Data) != "p4" {
		t.Fatalf("b-all holds %+v", ds)
	}
	if st := b.Stats("darshan.n.mpiio"); st != (Stats{Published: 2, Delivered: 1, Errored: 3, Dropped: 1}) {
		t.Fatalf("mpiio after the healthy batch: %+v", st)
	}
	if b.PublishBatch(nil) != 0 {
		t.Fatal("empty batch had receivers")
	}
}

// TestPublishIsBatchOfOne: Publish and a one-message PublishBatch are the
// same operation — same counts, same bytes at rest.
func TestPublishIsBatchOfOne(t *testing.T) {
	segs := [2]*sos.MemWAL{sos.NewMemWAL(), sos.NewMemWAL()}
	var stats [2]Stats
	for i, wal := range segs {
		b := NewBus()
		if err := b.BindStream(mustOpenStream(t, StreamConfig{Name: "s"}, wal)); err != nil {
			t.Fatal(err)
		}
		b.Subscribe("t", func(Message) {})
		m := Message{Tag: "t", Type: TypeJSON, Data: []byte(`{}`), Producer: "p", Seq: 1}
		if i == 0 {
			b.Publish(m)
		} else {
			b.PublishBatch([]Message{m})
		}
		stats[i] = b.Stats("t")
	}
	if stats[0] != stats[1] || stats[0] != (Stats{Published: 1, Delivered: 2}) {
		t.Fatalf("stats differ: %+v vs %+v", stats[0], stats[1])
	}
	if string(walBytes(t, segs[0])) != string(walBytes(t, segs[1])) {
		t.Fatal("segments differ")
	}
}

// TestAckBatchOneCheckpoint: a round acked with AckBatch advances the
// floor once and writes one cursor checkpoint, where per-message Ack
// writes one each; deliveries that are not inflight do not stop the rest.
func TestAckBatchOneCheckpoint(t *testing.T) {
	cw := &countingWAL{MemWAL: sos.NewMemWAL()}
	s := mustOpenStream(t, StreamConfig{Name: "darshan"}, cw)
	for i := 0; i < 8; i++ {
		mustAppend(t, s, "t", "x")
	}
	c, _ := s.Consumer(ConsumerConfig{Name: "r"})
	ds, err := c.Fetch(4)
	if err != nil || len(ds) != 4 {
		t.Fatal(ds, err)
	}
	before := cw.writes
	if err := c.AckBatch(ds); err != nil {
		t.Fatal(err)
	}
	if cw.writes-before != 1 || c.AckFloor() != 4 {
		t.Fatalf("batch ack: %d checkpoint writes, floor %d", cw.writes-before, c.AckFloor())
	}
	if s2 := mustOpenStream(t, StreamConfig{Name: "darshan"}, cw); s2.ConsumerStats()[0].AckFloor != 4 {
		t.Fatalf("checkpointed floor %d", s2.ConsumerStats()[0].AckFloor)
	}
	// Re-acking the settled round is a no-op; a never-delivered sequence
	// is reported but does not stop seq 5 from being acked.
	if err := c.AckBatch(ds); err != nil {
		t.Fatalf("idempotent re-ack: %v", err)
	}
	ds, _ = c.Fetch(1)
	err = c.AckBatch([]Delivery{{Seq: 7}, ds[0]})
	if !errors.Is(err, ErrNotInflight) || c.AckFloor() != 5 {
		t.Fatalf("mixed ack: %v, floor %d", err, c.AckFloor())
	}
	c.Close()
	if err := c.AckBatch(ds); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("ack on a closed consumer: %v", err)
	}
}

// TestDeliveryBatch: a delivery names the batch its message was stored
// with — the batch's first sequence, or 0 for a message appended alone —
// live and after a reopen, retention trims included.
func TestDeliveryBatch(t *testing.T) {
	wal := sos.NewMemWAL()
	cfg := StreamConfig{Name: "darshan", Retention: RetentionPolicy{MaxMsgs: 6}}
	s := mustOpenStream(t, cfg, wal)
	msg := func(p string) Message { return Message{Tag: "t", Type: TypeString, Data: []byte(p)} }
	for _, b := range [][]Message{{msg("a"), msg("b"), msg("c")}, {msg("d")}, {msg("e"), msg("f")}, {msg("g")}} {
		if _, err := s.AppendBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	batches := func(s *DurableStream) string {
		c, err := s.Consumer(ConsumerConfig{Name: "r"})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		ds, err := c.Fetch(16)
		if err != nil {
			t.Fatal(err)
		}
		var out []uint64
		for _, d := range ds {
			out = append(out, d.Batch)
		}
		return fmt.Sprint(out)
	}
	// Retention keeps six of seven: the first batch loses its head.
	const want = "[1 1 0 5 5 0]"
	if got := batches(s); got != want {
		t.Fatalf("live batches %s, want %s", got, want)
	}
	if got := batches(mustOpenStream(t, cfg, wal)); got != want {
		t.Fatalf("reopened batches %s, want %s", got, want)
	}
}

func wallStream(t *testing.T) *DurableStream {
	start := time.Now()
	return mustOpenStream(t, StreamConfig{Name: "darshan", Clock: func() time.Duration { return time.Since(start) }}, nil)
}

// waitResult runs c.Wait(d) on its own goroutine.
func waitResult(c *Consumer, d time.Duration) chan error {
	done := make(chan error, 1)
	go func() { done <- c.Wait(1, d) }()
	return done
}

// TestConsumerWaitWakesOnAppend: an idle consumer sleeps in Wait and the
// next append ends the sleep; with something already deliverable Wait
// does not sleep at all; with nothing, it sleeps the deadline out.
func TestConsumerWaitWakesOnAppend(t *testing.T) {
	s := wallStream(t)
	c, _ := s.Consumer(ConsumerConfig{Name: "r"})
	done := waitResult(c, time.Minute)
	select {
	case err := <-done:
		t.Fatalf("Wait returned on an empty stream: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	start := time.Now()
	mustAppend(t, s, "t", "x")
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("append did not wake the waiter")
	}
	if woke := time.Since(start); woke > time.Second {
		t.Fatalf("wake-up took %v", woke)
	}
	if err := <-waitResult(c, time.Minute); err != nil { // deliverable now: no sleep
		t.Fatal(err)
	}
	drain(t, c)
	start = time.Now()
	if err := c.Wait(1, 30*time.Millisecond); err != nil || time.Since(start) < 25*time.Millisecond {
		t.Fatalf("idle Wait returned %v after %v, want the 30ms deadline", err, time.Since(start))
	}
}

// TestConsumerWaitFullWindowWakesOnRedelivery: with the inflight window
// full, new appends are not deliverable — Wait must sleep until the
// earliest redelivery deadline, not return at once and not sleep forever.
func TestConsumerWaitFullWindowWakesOnRedelivery(t *testing.T) {
	s := wallStream(t)
	c, _ := s.Consumer(ConsumerConfig{Name: "r", MaxInflight: 2, AckWait: 60 * time.Millisecond})
	for i := 0; i < 4; i++ {
		mustAppend(t, s, "t", "x")
	}
	if ds, _ := c.Fetch(8); len(ds) != 2 {
		t.Fatalf("window let %d through", len(ds))
	}
	start := time.Now()
	if err := c.Wait(1, time.Minute); err != nil {
		t.Fatal(err)
	}
	if slept := time.Since(start); slept < 40*time.Millisecond || slept > 5*time.Second {
		t.Fatalf("full-window Wait slept %v, want about the 60ms ack deadline", slept)
	}
	ds, _ := c.Fetch(8)
	if len(ds) != 2 || ds[0].Deliveries != 2 {
		t.Fatalf("after the deadline: %+v", ds)
	}
	// A nak makes a delivery due at once and wakes the waiter.
	done := waitResult(c, time.Minute)
	time.Sleep(5 * time.Millisecond)
	if err := c.Nak(ds[0].Seq); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nak did not wake the waiter")
	}
}

// TestConsumerWaitUnblockedByCloseAndReplacement: a closed or replaced
// consumer's waiter returns ErrConsumerClosed promptly.
func TestConsumerWaitUnblockedByCloseAndReplacement(t *testing.T) {
	s := wallStream(t)
	c, _ := s.Consumer(ConsumerConfig{Name: "r"})
	done := waitResult(c, time.Minute)
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrConsumerClosed) {
			t.Fatalf("Wait after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the waiter")
	}
	if err := c.Wait(1, time.Minute); !errors.Is(err, ErrConsumerClosed) {
		t.Fatalf("Wait on a closed consumer: %v", err)
	}
	c2, _ := s.Consumer(ConsumerConfig{Name: "r"})
	done = waitResult(c2, time.Minute)
	time.Sleep(5 * time.Millisecond)
	if _, err := s.Consumer(ConsumerConfig{Name: "r"}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrConsumerClosed) {
			t.Fatalf("Wait after replacement: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("replacement did not unblock the waiter")
	}
}

// TestWaitRacesAppendCloseReplace is the race-detector target: blocking
// waits against concurrent AppendBatch, batch acks, Close and consumer
// replacement. Every appended message is delivered to some incarnation or
// still pending at the end; nothing deadlocks.
func TestWaitRacesAppendCloseReplace(t *testing.T) {
	s := wallStream(t)
	const batches, per = 200, 8
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		msgs := make([]Message, per)
		for i := range msgs {
			msgs[i] = Message{Tag: "t", Type: TypeString, Data: []byte("x")}
		}
		for i := 0; i < batches; i++ {
			if _, err := s.AppendBatch(msgs); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	var consumers sync.WaitGroup
	consume := func() {
		defer consumers.Done()
		c, err := s.Consumer(ConsumerConfig{Name: "r", AckWait: time.Millisecond})
		if err != nil {
			t.Error(err)
			return
		}
		for {
			ds, err := c.Fetch(16)
			if err != nil {
				return // replaced
			}
			if len(ds) == 0 {
				select {
				case <-stop:
					c.Close()
					return
				default:
				}
				if c.Wait(1, 5*time.Millisecond) != nil {
					return
				}
				continue
			}
			if err := c.AckBatch(ds); err != nil {
				return
			}
		}
	}
	// Successive claimants of one name: each replaces the one before.
	for i := 0; i < 4; i++ {
		consumers.Add(1)
		go consume()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for s.ConsumerStats()[0].AckFloor != batches*per {
		if time.Now().After(deadline) {
			t.Fatalf("floor stuck at %d of %d", s.ConsumerStats()[0].AckFloor, batches*per)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	consumers.Wait()
}
