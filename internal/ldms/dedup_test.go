package ldms

import (
	"fmt"
	"testing"

	"darshanldms/internal/streams"
)

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
