package ldms

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// Tests of the durable path's batch contract: a frame is one batch from
// the socket into the stream, a cursor round is one frame and one ack, an
// idle consumer sleeps instead of polling, and the store hop still
// settles message by message.

// identStore records every (producer, seq) it is asked to store, and can
// be told to fail chosen identities a number of times.
type identStore struct {
	mu     sync.Mutex
	stored []string
	fail   map[string]int
}

func (s *identStore) Name() string { return "store_ident" }
func (s *identStore) Store(m streams.Message) error {
	id := fmt.Sprintf("%s/%d", m.Producer, m.Seq)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail[id] > 0 {
		s.fail[id]--
		return errors.New("transient store failure")
	}
	s.stored = append(s.stored, id)
	return nil
}

func (s *identStore) ids() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.stored...)
}

// TestServeKeepsBooksPerFrame: a batch frame reaches the bus as one
// PublishBatch — a bound stream takes it as one segment write — while the
// server still counts every message, and every heartbeat, individually.
func TestServeKeepsBooksPerFrame(t *testing.T) {
	d := NewDaemon("agg", "head")
	wal := &writeCounter{MemWAL: sos.NewMemWAL()}
	s, err := streams.OpenStream(streams.StreamConfig{Name: "in", Subjects: []string{"darshanConnector"}}, wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Bus().BindStream(s); err != nil {
		t.Fatal(err)
	}
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := []streams.Message{typedMsg(1), heartbeat, typedMsg(2), typedMsg(3), heartbeat}
	if err := WriteBatchFrame(conn, frame); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(conn, heartbeat); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "frames handled", func() bool { return srv.Heartbeats() == 3 })
	if srv.Received() != 3 || srv.LastActivity().IsZero() {
		t.Fatalf("received %d (want 3), last activity %v", srv.Received(), srv.LastActivity())
	}
	if st := s.Stats(); st.LastSeq != 3 || wal.writes.Load() != 1 {
		t.Fatalf("stream holds %d messages from %d segment writes, want 3 from 1", st.LastSeq, wal.writes.Load())
	}
	if st := d.Bus().Stats("darshanConnector"); st.Published != 3 || st.Delivered != 3 || st.Dropped != 0 {
		t.Fatalf("bus stats %+v", st)
	}
	if st := d.Bus().Stats(HeartbeatTag); st.Published != 0 {
		t.Fatalf("heartbeats reached the bus: %+v", st)
	}
}

type writeCounter struct {
	*sos.MemWAL
	writes atomic.Int64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes.Add(1)
	return w.MemWAL.Write(p)
}

// TestCursorRoundIsOneFrameOneCheckpoint: a backlog drains in rounds of
// BatchSize, each one batch frame on the wire and one cursor checkpoint
// in the segment.
func TestCursorRoundIsOneFrameOneCheckpoint(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	wal := &writeCounter{MemWAL: sos.NewMemWAL()}
	s := openTestStream(t, wal)
	batch := make([]streams.Message, 40)
	for i := range batch {
		batch[i] = typedMsg(uint64(i + 1))
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	appendWrites := wal.writes.Load()
	cfg := fastUplink(srv.Addr())
	cfg.BatchSize = 16
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return srv.Received() == 40 })
	if got := u.batchFramesOut.Load(); got != 3 || u.framesOut.Load() != 0 {
		t.Fatalf("40 messages in rounds of 16 left as %d batch and %d legacy frames, want 3 and 0", got, u.framesOut.Load())
	}
	if got := wal.writes.Load() - appendWrites; got != 3 {
		t.Fatalf("%d cursor checkpoints for 3 rounds", got)
	}
	if st := u.Stats(); st.Sent != 40 || st.Consumer.AckFloor != 40 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCrashBetweenSendAndBatchAck kills the uplink's process between a
// round's flush and its batch ack: the successor redelivers the WHOLE
// round (the batch ack is all or nothing), the hop below absorbs every
// duplicate by (producer, seq), and the ack floor never moves backward.
func TestCrashBetweenSendAndBatchAck(t *testing.T) {
	agg := NewDaemon("agg", "head")
	inner := &identStore{}
	dedup := NewDedupStore(inner)
	agg.AttachStore("darshanConnector", dedup)
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	wal := sos.NewMemWAL()
	s := openTestStream(t, wal)
	const n, round = 24, 8
	batch := make([]streams.Message, n)
	for i := range batch {
		batch[i] = typedMsg(uint64(i + 1))
	}
	if _, err := s.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	// First incarnation, driven by hand: round 1 is sent and acked; round
	// 2 is sent — and then the process dies before settle.
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "uplink", MaxInflight: 2 * round})
	if err != nil {
		t.Fatal(err)
	}
	cur := &cursor{cons: cons, max: round}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msgs, ok := cur.take()
		if !ok || len(msgs) != round {
			t.Fatalf("round %d: %d messages, ok=%v", i+1, len(msgs), ok)
		}
		if err := WriteBatchFrame(conn, msgs); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cur.settle(true)
		}
	}
	waitFor(t, "both rounds stored", func() bool { return dedup.Stored() == 2*round })
	floorAtCrash := cons.AckFloor()
	if floorAtCrash != round {
		t.Fatalf("floor at crash %d, want %d (round 2 unacked)", floorAtCrash, round)
	}
	conn.Close()

	// Successor: a new process reopens the segment and resumes the cursor.
	s2 := openTestStream(t, wal)
	u, err := NewStreamUplink(s2, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if floor := u.Stats().Consumer.AckFloor; floor < floorAtCrash {
		t.Fatalf("floor regressed across the crash: %d -> %d", floorAtCrash, floor)
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "everything stored", func() bool { return dedup.Stored() == n })
	waitFor(t, "redelivered round absorbed", func() bool { return dedup.Duplicates() == round })
	if st := u.Stats(); st.Sent != n-round || st.Consumer.AckFloor != n {
		t.Fatalf("successor sent %d (want %d: the unacked round again plus the rest), floor %d", st.Sent, n-round, st.Consumer.AckFloor)
	}
	ids := inner.ids()
	sort.Strings(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			t.Fatalf("identity %s stored twice", ids[i])
		}
	}
	if len(ids) != n {
		t.Fatalf("%d identities stored, want %d", len(ids), n)
	}
}

// TestIngestStreamSettlesPerMessage: a store error in the middle of a
// round naks exactly that message and acks the ones before it (each ack
// its own checkpoint), the loop keeps going, and after redelivery every
// message has been stored exactly once.
func TestIngestStreamSettlesPerMessage(t *testing.T) {
	wal := &writeCounter{MemWAL: sos.NewMemWAL()}
	s := openTestStream(t, wal)
	const n = 10
	batch := make([]streams.Message, n)
	for i := range batch {
		batch[i] = typedMsg(uint64(i + 1))
	}
	inner := &identStore{fail: map[string]int{"nid00040/5": 2}}
	dedup := NewDedupStore(inner)
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "ingest"})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var errs []error
	var floorAtFirstErr uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		IngestStream(cons, dedup, func(err error) {
			mu.Lock()
			if len(errs) == 0 {
				floorAtFirstErr = cons.AckFloor()
			}
			errs = append(errs, err)
			mu.Unlock()
		})
	}()
	if _, err := s.AppendBatch(batch); err != nil { // wakes the idle loop
		t.Fatal(err)
	}
	waitFor(t, "round ingested", func() bool { return cons.AckFloor() == n })
	cons.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("IngestStream did not return after Close")
	}
	if len(errs) != 2 || floorAtFirstErr != 4 {
		t.Fatalf("%d store errors reported, floor at the first %d; want 2 and 4 (1..4 acked before 5 failed)", len(errs), floorAtFirstErr)
	}
	cs := cons.Stats()
	if cs.Naks != 2 || cs.Redelivered != 2 || cs.Acked != n {
		t.Fatalf("consumer stats %+v, want exactly the failing message naked twice", cs)
	}
	ids := inner.ids()
	if len(ids) != n || dedup.Duplicates() != 0 {
		t.Fatalf("stored %v (%d duplicates absorbed), want each of %d once", ids, dedup.Duplicates(), n)
	}
	// One append, then one checkpoint per floor advance: acks 1..4, then
	// 6..10 settle above the gap, then 5's ack carries the floor to 10.
	if got := wal.writes.Load(); got != 1+4+1 {
		t.Fatalf("%d segment writes, want 1 append + 5 checkpoints", got)
	}
}

// TestIdleUplinkWakesAndDoesNotSpin is the wake-don't-poll contract: an
// append on an idle stream reaches a loopback server promptly, and while
// nothing is appended the uplink does not call into the stream at all.
func TestIdleUplinkWakesAndDoesNotSpin(t *testing.T) {
	agg := NewDaemon("agg", "head")
	count := &CountStore{}
	agg.AttachStore("darshanConnector", count)
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Every Fetch and every Wait reads the stream clock; counting reads
	// counts calls without adding a counter to the stream.
	var clockReads atomic.Int64
	start := time.Now()
	s, err := streams.OpenStream(streams.StreamConfig{Name: "fwd", Clock: func() time.Duration {
		clockReads.Add(1)
		return time.Since(start)
	}}, sos.NewMemWAL())
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	appendSeq(t, s, 0) // establishes the connection
	waitFor(t, "first delivery", func() bool { return count.Count() == 1 })
	time.Sleep(10 * time.Millisecond) // let the loop park

	before := clockReads.Load()
	time.Sleep(200 * time.Millisecond)
	if reads := clockReads.Load() - before; reads > 4 {
		t.Fatalf("idle uplink read the stream clock %d times in 200ms: it is polling", reads)
	}

	lat := make([]time.Duration, 0, 31)
	for i := 1; i <= cap(lat); i++ {
		time.Sleep(3 * time.Millisecond)
		t0 := time.Now()
		appendSeq(t, s, i)
		for count.Count() < uint64(i+1) {
			if time.Since(t0) > 5*time.Second {
				t.Fatalf("append %d never arrived", i)
			}
			time.Sleep(20 * time.Microsecond)
		}
		lat = append(lat, time.Since(t0))
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	if p50 := lat[len(lat)/2]; p50 > 2*time.Millisecond {
		t.Fatalf("idle append -> loopback store p50 %v, want < 2ms (max %v)", p50, lat[len(lat)-1])
	}
}

// TestDedupStoreMemoryIsBounded: in-order identities collapse into one
// floor per producer — a million events leave eight numbers — while a gap
// pins the floor, is never inferred across, and a late sequence below it
// is still stored exactly once.
func TestDedupStoreMemoryIsBounded(t *testing.T) {
	inner := &CountStore{}
	d := NewDedupStore(inner)
	perProducer := uint64(125000)
	if testing.Short() {
		perProducer = 12500
	}
	producers := []string{"n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	m := streams.Message{Tag: "t", Type: streams.TypeJSON, Data: []byte(`{}`)}
	for seq := uint64(1); seq <= perProducer; seq++ {
		for _, p := range producers {
			m.Producer, m.Seq = p, seq
			if err := d.Store(m); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(d.seen) != len(producers) {
		t.Fatalf("%d producer entries", len(d.seen))
	}
	for p, s := range d.seen {
		if s.floor != perProducer || len(s.above) != 0 {
			t.Fatalf("producer %s: floor %d with %d sparse entries, want %d and none", p, s.floor, len(s.above), perProducer)
		}
	}
	if inner.Count() != perProducer*8 || d.Duplicates() != 0 {
		t.Fatalf("stored %d, %d duplicates", inner.Count(), d.Duplicates())
	}

	// A gap: 1, 2, then 5..7. The floor stays at 2; 3 and 4 are unseen.
	g := NewDedupStore(&CountStore{})
	store := func(seq uint64) {
		t.Helper()
		if err := g.Store(streams.Message{Tag: "t", Data: []byte(`{}`), Producer: "n", Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	for _, seq := range []uint64{1, 2, 5, 6, 7} {
		store(seq)
	}
	if s := g.seen["n"]; s.floor != 2 || len(s.above) != 3 || g.Seen("n", 3) || g.Seen("n", 4) || !g.Seen("n", 6) {
		t.Fatalf("gap state: floor %d, %d above", s.floor, len(s.above))
	}
	store(4) // late, below the sparse set, still above the floor
	store(4) // and its replay
	store(3) // fills the gap: the floor runs to 7 and the set empties
	store(6)
	if s := g.seen["n"]; s.floor != 7 || len(s.above) != 0 {
		t.Fatalf("after the gap filled: floor %d, %d above", s.floor, len(s.above))
	}
	if g.Stored() != 7 || g.Duplicates() != 2 {
		t.Fatalf("stored %d duplicates %d, want 7 and 2", g.Stored(), g.Duplicates())
	}
	// Sequence 1 never seen: nothing may be inferred from 2 and 3.
	h := NewDedupStore(&CountStore{})
	for _, seq := range []uint64{2, 3} {
		if err := h.Store(streams.Message{Tag: "t", Data: []byte(`{}`), Producer: "n", Seq: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if h.Seen("n", 1) || h.seen["n"].floor != 0 {
		t.Fatal("floor advanced over a sequence that was never stored")
	}
}

// TestSegmentHoldsTheFramePayload: the wire and the durable stream share
// one batch record codec, so what the stream stores for a frame is the
// frame's own payload bytes.
func TestSegmentHoldsTheFramePayload(t *testing.T) {
	in := []streams.Message{
		typedMsg(1),
		{Tag: "darshanConnector", Type: streams.TypeJSON, Data: []byte(`{"op":"open"}`), Producer: "p", Seq: 2},
		{Tag: "darshanConnector", Type: streams.TypeString, Data: []byte("hello")},
	}
	var frame bytes.Buffer
	if err := WriteBatchFrame(&frame, in); err != nil {
		t.Fatal(err)
	}
	payload := frame.Bytes()[6:]
	wal := sos.NewMemWAL()
	s := openTestStream(t, wal)
	if _, err := s.AppendBatch(in); err != nil {
		t.Fatal(err)
	}
	r, err := wal.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var seg bytes.Buffer
	_, _ = seg.ReadFrom(r)
	if !bytes.HasSuffix(seg.Bytes(), payload) {
		t.Fatal("the segment's batch entry does not end in the frame's payload bytes")
	}
}
