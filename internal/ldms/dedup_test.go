package ldms

import (
	"fmt"
	"testing"
	"time"

	"darshanldms/internal/streams"
)

// publishStamped publishes a stamped message: (producer, seq) rides on the
// stream message as the connector does it.
func publishStamped(d *Daemon, producer string, seq uint64) {
	d.Bus().Publish(streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Data:     []byte(fmt.Sprintf(`{"seq":%d}`, seq)),
		Producer: producer, Seq: seq,
	})
}

func TestDedupStoreSuppressesReplays(t *testing.T) {
	inner := &seqStore{}
	d := NewDedupStore(inner)
	stamped := func(producer string, seq uint64) streams.Message {
		return streams.Message{
			Tag: "t", Type: streams.TypeJSON,
			Data:     []byte(fmt.Sprintf(`{"seq":%d}`, seq)),
			Producer: producer, Seq: seq,
		}
	}
	for _, m := range []streams.Message{
		stamped("nid1", 1),
		stamped("nid1", 2),
		stamped("nid1", 1), // replay
		stamped("nid2", 1), // same seq, different producer: fresh
		stamped("nid1", 2), // replay
		stamped("nid1", 3),
	} {
		if err := d.Store(m); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.Seqs(); len(got) != 4 {
		t.Fatalf("inner stored %v, want 4 uniques", got)
	}
	if d.Duplicates() != 2 {
		t.Fatalf("Duplicates() = %d, want 2", d.Duplicates())
	}
	if d.Stored() != 4 {
		t.Fatalf("Stored() = %d, want 4", d.Stored())
	}
	// Unstamped messages pass through untouched, even repeated.
	raw := streams.Message{Tag: "t", Type: streams.TypeJSON, Data: []byte(`{"seq":99}`)}
	if err := d.Store(raw); err != nil {
		t.Fatal(err)
	}
	if err := d.Store(raw); err != nil {
		t.Fatal(err)
	}
	if d.Unstamped() != 2 {
		t.Fatalf("Unstamped() = %d, want 2", d.Unstamped())
	}
	if got := inner.Seqs(); len(got) != 6 {
		t.Fatalf("inner stored %v, want 6 total", got)
	}
	if !d.seen["nid1"].has(3) || d.seen["nid1"].has(4) {
		t.Fatal("Seen bookkeeping wrong")
	}
}

// A failed inner store must not mark the identity seen: the retry that
// follows is a fresh attempt and has to reach the store.
func TestDedupStoreRetryAfterFailure(t *testing.T) {
	inner := &failOnceStore{}
	d := NewDedupStore(inner)
	m := streams.Message{Tag: "t", Data: []byte(`{"seq":1}`), Producer: "nid1", Seq: 1}
	if err := d.Store(m); err == nil {
		t.Fatal("first store should fail")
	}
	if err := d.Store(m); err != nil {
		t.Fatalf("retry: %v", err)
	}
	if inner.stored != 1 {
		t.Fatalf("inner stored %d, want 1", inner.stored)
	}
	if d.Duplicates() != 0 {
		t.Fatalf("retry counted as duplicate")
	}
	// Now it IS stored; a replay is suppressed.
	if err := d.Store(m); err != nil {
		t.Fatal(err)
	}
	if d.Duplicates() != 1 {
		t.Fatalf("Duplicates() = %d, want 1", d.Duplicates())
	}
}

type failOnceStore struct {
	calls  int
	stored int
}

func (s *failOnceStore) Name() string { return "failonce" }
func (s *failOnceStore) Store(streams.Message) error {
	s.calls++
	if s.calls == 1 {
		return fmt.Errorf("transient")
	}
	s.stored++
	return nil
}

// The satellite test: a forwarder with reconnect replay re-sends its tail
// after the link dies, and the dedup store still records every
// (producer, seq) exactly once.
func TestReconnectReplayExactlyOnce(t *testing.T) {
	agg := NewDaemon("agg", "head")
	store := &seqStore{}
	dedup := NewDedupStore(store)
	agg.AttachStore("darshanConnector", dedup)
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	node := NewDaemon("node", "nid00040")
	cfg := fastBackoff(srv.Addr())
	cfg.ReplayLast = 4
	f, err := NewSpoolUplink(node, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	for i := 1; i <= 8; i++ {
		publishStamped(node, "nid00040", uint64(i))
	}
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first batch", func() bool { return srv.Received() == 8 })

	// Kill the TCP connection (server keeps listening): the forwarder
	// cannot know whether its tail was processed, so after reconnecting it
	// replays the last 4 frames before sending anything new.
	srv.DropConnections()
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })

	for i := 9; i <= 16; i++ {
		publishStamped(node, "nid00040", uint64(i))
	}
	if err := f.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// 8 + 4 replayed + 8 = 20 frames on the wire...
	waitFor(t, "replay + second batch", func() bool { return srv.Received() == 20 })

	if got := f.Stats().Replayed; got != 4 {
		t.Fatalf("Replayed = %d, want 4", got)
	}
	// ...but exactly 16 distinct messages at the store, in order.
	got := store.Seqs()
	if len(got) != 16 {
		t.Fatalf("store saw %d messages, want 16: %v", len(got), got)
	}
	for i, seq := range got {
		if seq != i+1 {
			t.Fatalf("store sequence broken at %d: %v", i, got)
		}
	}
	if d := dedup.Duplicates(); d != 4 {
		t.Fatalf("Duplicates() = %d, want the 4 replayed frames", d)
	}
}
