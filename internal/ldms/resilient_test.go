package ldms

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/streams"
)

// fastBackoff keeps reconnect tests quick.
func fastBackoff(addr string) UplinkConfig {
	return UplinkConfig{
		Addr:           addr,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           1,
	}
}

// openSpool opens the spool of ldmsd -reconnect on bus: a memory-only
// stream of the connector tag, size messages at most, overflowing by
// policy.
func openSpool(t *testing.T, bus *streams.Bus, size int, policy streams.OverflowPolicy) *streams.DurableStream {
	t.Helper()
	s, err := streams.OpenStream(streams.StreamConfig{
		Name: "ldmsd", Subjects: []string{"darshanConnector"},
		Retention: streams.RetentionPolicy{MaxMsgs: size}, Overflow: policy,
		Clock: func() time.Duration { return time.Duration(time.Now().UnixNano()) },
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.BindStream(s); err != nil {
		t.Fatal(err)
	}
	return s
}

// spoolUplink wires node's uplink as ldmsd -reconnect does: its spool
// forwarded by a stream uplink.
func spoolUplink(t *testing.T, node *Daemon, cfg UplinkConfig, size int, policy streams.OverflowPolicy) (*Uplink, *streams.DurableStream) {
	t.Helper()
	s := openSpool(t, node.Bus(), size, policy)
	u, err := NewStreamUplink(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return u, s
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// seqStore records the seq field of every stored payload.
type seqStore struct {
	mu   sync.Mutex
	seqs []int
}

func (s *seqStore) Name() string { return "store_seq" }
func (s *seqStore) Store(m streams.Message) error {
	var v struct{ Seq int }
	if err := json.Unmarshal(m.Data, &v); err != nil {
		return err
	}
	s.mu.Lock()
	s.seqs = append(s.seqs, v.Seq)
	s.mu.Unlock()
	return nil
}
func (s *seqStore) Seqs() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.seqs...)
}

func publishSeq(d *Daemon, i int) {
	d.Bus().PublishJSON("darshanConnector", []byte(fmt.Sprintf(`{"seq":%d}`, i)))
}

// TestReconnectingForwarderSurvivesAggregatorRestart is the acceptance
// scenario: the TCP aggregator is killed mid-stream and restarted on the
// same address; with the forwarder's memory-only stream as its spool,
// every message published during the outage is delivered after reconnect
// (contrast with TestTCPServerDeathDropsSilently, the best-effort
// default).
func TestReconnectingForwarderSurvivesAggregatorRestart(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	node := NewDaemon("node", "nid00040")
	f, spool := spoolUplink(t, node, fastBackoff(addr), 1024, streams.DropOldest)
	defer f.Close()

	for i := 0; i < 5; i++ {
		publishSeq(node, i)
	}
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", func() bool { return srv.Received() == 5 })

	// Kill the aggregator mid-stream. The connection monitor notices the
	// close, so wait for the forwarder to see the dead link before
	// publishing the outage batch.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })

	for i := 5; i < 15; i++ {
		publishSeq(node, i)
	}
	// Wait until the batch is spooled and at least one send has failed
	// against the dead address (so the restart genuinely exercises the
	// backoff/reconnect path).
	waitFor(t, "outage batch spooled", func() bool {
		return spool.Stats().Appended == 15 && f.Stats().Retries >= 1
	})

	// Restart the aggregator on the same address.
	agg2 := NewDaemon("agg", "head")
	store := &seqStore{}
	agg2.AttachStore("darshanConnector", store)
	srv2, err := ListenTCP(agg2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "spool replay", func() bool { return srv2.Received() == 10 })

	st := f.Stats()
	if ss := spool.Stats(); st.Sent != 15 || ss.Dropped+ss.Refused != 0 || ss.Released != 15 || ss.Msgs != 0 {
		t.Fatalf("sent %d, spool %+v; want 15 sent, all released, none dropped", st.Sent, ss)
	}
	if st.Reconnects < 1 {
		t.Fatalf("reconnects %d, want >= 1", st.Reconnects)
	}
	if st.Retries == 0 {
		t.Fatal("expected failed sends to be retried during the outage")
	}
	// Every outage message arrived, in order.
	got := store.Seqs()
	if len(got) != 10 {
		t.Fatalf("restarted aggregator stored %d messages, want 10", len(got))
	}
	for i, seq := range got {
		if seq != 5+i {
			t.Fatalf("out-of-order replay: got %v", got)
		}
	}
}

// deadAddr returns an address nothing is listening on.
func deadAddr(t *testing.T) string {
	t.Helper()
	d := NewDaemon("agg", "tmp")
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()
	return addr
}

// spoolFixture starts a forwarder against a dead address and waits until
// message 0 is in flight (the uplink fetched it and is retrying), so
// subsequent publishes interact with the window deterministically.
func spoolFixture(t *testing.T, cfg UplinkConfig, size int, policy streams.OverflowPolicy) (*Daemon, *Uplink, *streams.DurableStream) {
	t.Helper()
	node := NewDaemon("node", "nid00041")
	f, spool := spoolUplink(t, node, cfg, size, policy)
	t.Cleanup(func() { f.Close() })
	publishSeq(node, 0)
	waitFor(t, "msg 0 in flight", func() bool { return f.Stats().Retries >= 1 })
	return node, f, spool
}

func TestForwarderSpoolDropOldest(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	node, f, spool := spoolFixture(t, cfg, 5, streams.DropOldest)

	for i := 1; i <= 9; i++ {
		publishSeq(node, i)
	}
	// The window holds the newest 5 (5..9); 0..4 were evicted, message 0
	// in flight among them: the window counts the round in hand.
	if st := spool.Stats(); st.Appended != 10 || st.Dropped != 5 || st.Msgs != 5 {
		t.Fatalf("appended %d dropped %d depth %d, want 10/5/5", st.Appended, st.Dropped, st.Msgs)
	}

	// Every later fetch settles 0..4 as missed: once all five are, no
	// round the uplink takes can hold one of them.
	waitFor(t, "0..4 missed", func() bool { return f.Stats().Consumer.Missed >= 5 })

	// Bring a server up at the address: the survivors drain, newest kept.
	agg := NewDaemon("agg", "head")
	store := &seqStore{}
	agg.AttachStore("darshanConnector", store)
	srv, err := ListenTCP(agg, cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain", func() bool { return len(store.Seqs()) >= 5 })
	if got, want := store.Seqs(), []int{5, 6, 7, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if missed := f.Stats().Consumer.Missed; missed != 5 {
		t.Fatalf("consumer missed %d, want 5 (0..4)", missed)
	}
}

func TestForwarderSpoolDropNewest(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	node, f, spool := spoolFixture(t, cfg, 5, streams.DropNewest)

	for i := 1; i <= 9; i++ {
		publishSeq(node, i)
	}
	// The window keeps the oldest 5 (0..4); 5..9 were refused.
	if st := spool.Stats(); st.Appended != 5 || st.Refused != 5 || st.Msgs != 5 {
		t.Fatalf("appended %d refused %d depth %d, want 5/5/5", st.Appended, st.Refused, st.Msgs)
	}
	if bus := node.Bus().Stats("darshanConnector"); bus.Dropped != 5 {
		t.Fatalf("bus dropped %d, want the refusals (5)", bus.Dropped)
	}

	agg := NewDaemon("agg", "head")
	store := &seqStore{}
	agg.AttachStore("darshanConnector", store)
	srv, err := ListenTCP(agg, cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain", func() bool { return srv.Received() == 5 })
	got := store.Seqs()
	for i, seq := range got {
		if seq != i { // 0..4
			t.Fatalf("got %v, want [0 1 2 3 4]", got)
		}
	}
}

// TestUplinkHealthWindowFull: with the upstream dead, the uplink's health
// probe fails once the window holds its bound unsent — message 0, in
// flight, counts — and, under drop-newest, names the refusals once an
// append was refused.
func TestUplinkHealthWindowFull(t *testing.T) {
	for _, policy := range []streams.OverflowPolicy{streams.Block, streams.DropNewest} {
		node, f, _ := spoolFixture(t, fastBackoff(deadAddr(t)), 3, policy)
		health := f.Health(3)
		publishSeq(node, 1)
		if err := health(); err != nil {
			t.Fatalf("%s: two of three held: %v", policy, err)
		}
		publishSeq(node, 2)
		if err := health(); err == nil || !strings.Contains(err.Error(), "window full") {
			t.Fatalf("%s: three of three held: %v, want window full", policy, err)
		}
		if policy == streams.DropNewest {
			publishSeq(node, 3)
			if err := health(); err == nil || !strings.Contains(err.Error(), "1 messages refused") {
				t.Fatalf("%s: one refused: %v, want the refusal", policy, err)
			}
		}
	}
}

func TestForwarderSpoolBlockBackpressure(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	node, f, spool := spoolFixture(t, cfg, 3, streams.Block)

	publishSeq(node, 1)
	publishSeq(node, 2)
	// The window is full; the next publish must block.
	released := make(chan struct{})
	go func() {
		publishSeq(node, 3)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("publish did not block on a full spool")
	case <-time.After(50 * time.Millisecond):
	}

	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, cfg.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("blocked publish never released after server came up")
	}
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "drain", func() bool { return srv.Received() == 4 })
	if st, ss := f.Stats(), spool.Stats(); ss.Dropped+ss.Refused != 0 || st.Sent != 4 {
		t.Fatalf("dropped %d sent %d, want 0/4 (block never drops)", ss.Dropped+ss.Refused, st.Sent)
	}
}

func TestForwarderHeartbeatLiveness(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00042")
	cfg := fastBackoff(srv.Addr())
	cfg.HeartbeatEvery = 5 * time.Millisecond
	f, _ := spoolUplink(t, node, cfg, 1024, streams.DropOldest)
	defer f.Close()

	waitFor(t, "heartbeats", func() bool {
		return srv.Heartbeats() >= 3 && f.Stats().Heartbeats >= 3
	})
	// Probes keep the link observable but are not stream traffic.
	if srv.Received() != 0 {
		t.Fatalf("heartbeats were published as messages: received %d", srv.Received())
	}
}

func TestDropConnectionsForcesReconnect(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00043")
	f, spool := spoolUplink(t, node, fastBackoff(srv.Addr()), 1024, streams.DropOldest)
	defer f.Close()

	publishSeq(node, 0)
	waitFor(t, "first delivery", func() bool { return srv.Received() == 1 })
	if n := srv.DropConnections(); n != 1 {
		t.Fatalf("dropped %d connections, want 1", n)
	}
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })
	publishSeq(node, 1)
	waitFor(t, "redelivery", func() bool { return srv.Received() == 2 })
	if st, ss := f.Stats(), spool.Stats(); st.Reconnects < 1 || ss.Dropped != 0 {
		t.Fatalf("reconnects %d dropped %d, want >=1 / 0", st.Reconnects, ss.Dropped)
	}
}

func TestPingTCP(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := PingTCP(srv.Addr(), time.Second); err != nil {
		t.Fatalf("ping of a live daemon failed: %v", err)
	}
	waitFor(t, "probe count", func() bool { return srv.Heartbeats() == 1 })
	addr := srv.Addr()
	srv.Close()
	if err := PingTCP(addr, 100*time.Millisecond); err == nil {
		t.Fatal("ping of a dead daemon succeeded")
	}
}

func TestForwarderConfigValidation(t *testing.T) {
	s, err := streams.OpenStream(streams.StreamConfig{Name: "ldmsd"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStreamUplink(s, UplinkConfig{}); err == nil {
		t.Fatal("missing address accepted")
	}
	if _, err := NewStreamUplink(nil, UplinkConfig{Addr: "x"}); err == nil {
		t.Fatal("nil stream accepted")
	}
	if _, err := NewStreamUplink(s, UplinkConfig{Addr: "x", Standby: "x"}); err == nil {
		t.Fatal("standby equal to the primary accepted")
	}
}

// failNStore fails its first n Store calls, then succeeds.
type failNStore struct {
	mu    sync.Mutex
	n     int
	calls int
	ok    int
}

func (s *failNStore) Name() string { return "store_failn" }
func (s *failNStore) Store(m streams.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.calls <= s.n {
		return errors.New("transient")
	}
	s.ok++
	return nil
}

func TestRetryStoreRecoversTransientFailures(t *testing.T) {
	inner := &failNStore{n: 2}
	rs := NewRetryStore(inner, RetryConfig{Attempts: 3})
	if err := rs.Store(streams.Message{Tag: "t", Type: streams.TypeJSON, Data: []byte(`{}`)}); err != nil {
		t.Fatalf("store failed despite retries: %v", err)
	}
	retries, failures, _ := rs.Stats()
	if retries != 2 || failures != 0 {
		t.Fatalf("retries %d failures %d, want 2/0", retries, failures)
	}
}

func TestRetryStoreGivesUpAfterAttempts(t *testing.T) {
	inner := &failNStore{n: 100}
	rs := NewRetryStore(inner, RetryConfig{Attempts: 3})
	err := rs.Store(streams.Message{Tag: "t", Type: streams.TypeJSON, Data: []byte(`{}`)})
	if err == nil {
		t.Fatal("expected failure after attempts exhausted")
	}
	_, failures, lastErr := rs.Stats()
	if failures != 1 || lastErr == nil {
		t.Fatalf("failures %d lastErr %v, want 1 and non-nil", failures, lastErr)
	}
	if inner.calls != 3 {
		t.Fatalf("inner called %d times, want 3", inner.calls)
	}
}

// TestRetryStoreDSOSFailover: with a sharded DSOS cluster, the round-robin
// client rotates daemons on every Insert, so RetryStore turns a single dead
// dsosd into transparent failover — the retry lands on the healthy shard.
func TestRetryStoreDSOSFailover(t *testing.T) {
	cluster := dsos.NewCluster(2, "darshan")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	cluster.Daemons()[0].SetFault(errors.New("injected outage"))
	client := dsos.Connect(cluster)
	rs := NewRetryStore(NewDSOSStore(client), RetryConfig{Attempts: 2})

	agg := NewDaemon("agg", "remote")
	h := agg.AttachStore("darshanConnector", rs)
	for i := 0; i < 10; i++ {
		agg.Bus().PublishJSON("darshanConnector", sampleConnectorMessage())
	}
	if errs, lastErr := h.Errors(); errs != 0 {
		t.Fatalf("store errors %d (%v), want failover to absorb all of them", errs, lastErr)
	}
	if got := client.Count(dsos.DarshanSchemaName); got != 10 {
		t.Fatalf("stored %d objects, want 10", got)
	}
	// Everything landed on the healthy daemon.
	if n := cluster.Daemons()[1].Count(dsos.DarshanSchemaName); n != 10 {
		t.Fatalf("healthy daemon holds %d, want 10", n)
	}
}

// DropConnections forcibly closes every live connection while keeping the
// listener up — the "TCP connection kill" fault. Clients without reconnect
// lose the link silently; an Uplink redials.
func (s *TCPServer) DropConnections() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.conns)
	for c := range s.conns {
		c.Close()
	}
	return n
}
