package ldms

import (
	"encoding/json"
	"errors"
	"fmt"
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
		Tag:            "darshanConnector",
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Seed:           1,
	}
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
// same address; with the forwarder's spool enabled, every message published
// during the outage is delivered after reconnect (contrast with
// TestTCPServerDeathDropsSilently, the best-effort default).
func TestReconnectingForwarderSurvivesAggregatorRestart(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	node := NewDaemon("node", "nid00040")
	f, err := NewSpoolUplink(node, fastBackoff(addr))
	if err != nil {
		t.Fatal(err)
	}
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
		st := f.Stats()
		return st.Enqueued == 15 && st.Retries >= 1
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
	if st.Sent != 15 || st.Dropped != 0 {
		t.Fatalf("sent %d dropped %d, want 15/0", st.Sent, st.Dropped)
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
// message 0 is in flight (worker popped it and is retrying), so subsequent
// publishes interact with the spool deterministically.
func spoolFixture(t *testing.T, cfg UplinkConfig) (*Daemon, *Uplink) {
	t.Helper()
	node := NewDaemon("node", "nid00041")
	f, err := NewSpoolUplink(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	publishSeq(node, 0)
	waitFor(t, "msg 0 in flight", func() bool { return f.Stats().Retries >= 1 })
	return node, f
}

func TestForwarderSpoolDropOldest(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	cfg.SpoolSize = 4
	cfg.Overflow = DropOldest
	node, f := spoolFixture(t, cfg)

	for i := 1; i <= 9; i++ {
		publishSeq(node, i)
	}
	st := f.Stats()
	// Spool holds the newest 4 (6..9); 1..5 were evicted. Message 0 is
	// still in flight.
	if st.Enqueued != 10 || st.Dropped != 5 || st.SpoolDepth != 5 {
		t.Fatalf("enqueued %d dropped %d depth %d, want 10/5/5", st.Enqueued, st.Dropped, st.SpoolDepth)
	}
	if bus := node.Bus().Stats("darshanConnector"); bus.Dropped != 5 {
		t.Fatalf("bus dropped %d, want the forwarder drops folded in (5)", bus.Dropped)
	}

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
	waitFor(t, "drain", func() bool { return srv.Received() == 5 })
	want := []int{0, 6, 7, 8, 9}
	got := store.Seqs()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestForwarderSpoolDropNewest(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	cfg.SpoolSize = 4
	cfg.Overflow = DropNewest
	node, f := spoolFixture(t, cfg)

	for i := 1; i <= 9; i++ {
		publishSeq(node, i)
	}
	st := f.Stats()
	// Spool keeps the oldest 4 (1..4); 5..9 were rejected.
	if st.Enqueued != 10 || st.Dropped != 5 || st.SpoolDepth != 5 {
		t.Fatalf("enqueued %d dropped %d depth %d, want 10/5/5", st.Enqueued, st.Dropped, st.SpoolDepth)
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

func TestForwarderSpoolBlockBackpressure(t *testing.T) {
	cfg := fastBackoff(deadAddr(t))
	cfg.SpoolSize = 2
	cfg.Overflow = Block
	node, f := spoolFixture(t, cfg)

	publishSeq(node, 1)
	publishSeq(node, 2)
	// The spool is full; the next publish must block.
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
	if st := f.Stats(); st.Dropped != 0 || st.Sent != 4 {
		t.Fatalf("dropped %d sent %d, want 0/4 (block never drops)", st.Dropped, st.Sent)
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
	f, err := NewSpoolUplink(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	waitFor(t, "heartbeats", func() bool {
		return srv.Heartbeats() >= 3 && f.Stats().Heartbeats >= 3
	})
	// Probes keep the link observable but are not stream traffic.
	if srv.Received() != 0 {
		t.Fatalf("heartbeats were published as messages: received %d", srv.Received())
	}
	if srv.LastActivity().IsZero() {
		t.Fatal("server did not record link activity")
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
	f, err := NewSpoolUplink(node, fastBackoff(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	publishSeq(node, 0)
	waitFor(t, "first delivery", func() bool { return srv.Received() == 1 })
	if n := srv.DropConnections(); n != 1 {
		t.Fatalf("dropped %d connections, want 1", n)
	}
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })
	publishSeq(node, 1)
	waitFor(t, "redelivery", func() bool { return srv.Received() == 2 })
	if st := f.Stats(); st.Reconnects < 1 || st.Dropped != 0 {
		t.Fatalf("reconnects %d dropped %d, want >=1 / 0", st.Reconnects, st.Dropped)
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
	node := NewDaemon("node", "nid00044")
	if _, err := NewSpoolUplink(node, UplinkConfig{Tag: "t"}); err == nil {
		t.Fatal("missing address accepted")
	}
	if _, err := NewSpoolUplink(node, UplinkConfig{Addr: "x"}); err == nil {
		t.Fatal("missing tag accepted")
	}
	if _, err := NewSpoolUplink(nil, UplinkConfig{Addr: "x", Tag: "t"}); err == nil {
		t.Fatal("nil daemon accepted")
	}
}

func TestParseOverflowPolicy(t *testing.T) {
	cases := map[string]OverflowPolicy{
		"": DropOldest, "drop-oldest": DropOldest,
		"drop-newest": DropNewest, "block": Block,
	}
	for in, want := range cases {
		got, err := ParseOverflowPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseOverflowPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
		if in != "" && got.String() != in {
			t.Fatalf("round trip %q -> %q", in, got)
		}
	}
	if _, err := ParseOverflowPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
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
