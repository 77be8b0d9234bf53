package streams

import (
	"sync"
	"testing"
)

func TestPublishSubscribe(t *testing.T) {
	b := NewBus()
	var got []string
	b.Subscribe("darshanConnector", func(m Message) { got = append(got, string(m.Data)) })
	n := b.PublishJSON("darshanConnector", []byte(`{"op":"open"}`))
	if n != 1 {
		t.Fatalf("delivered to %d", n)
	}
	if len(got) != 1 || got[0] != `{"op":"open"}` {
		t.Fatalf("got %v", got)
	}
}

func TestTagIsolation(t *testing.T) {
	b := NewBus()
	darshan, other := 0, 0
	b.Subscribe("darshanConnector", func(Message) { darshan++ })
	b.Subscribe("slurm", func(Message) { other++ })
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("x")})
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("y")})
	b.Publish(Message{Tag: "slurm", Type: TypeString, Data: []byte("z")})
	if darshan != 2 || other != 1 {
		t.Fatalf("darshan=%d other=%d", darshan, other)
	}
}

func TestBestEffortDropWithoutSubscriber(t *testing.T) {
	b := NewBus()
	if n := b.Publish(Message{Tag: "nobody", Type: TypeString, Data: []byte("lost")}); n != 0 {
		t.Fatalf("delivered to %d, want 0", n)
	}
	st := b.Stats("nobody")
	if st.Published != 1 || st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("stats %+v", st)
	}
	// No caching: a late subscriber sees nothing.
	got := 0
	b.Subscribe("nobody", func(Message) { got++ })
	if got != 0 {
		t.Fatal("cached message replayed — streams must not cache")
	}
}

func TestMultipleSubscribersEachReceive(t *testing.T) {
	b := NewBus()
	a, c := 0, 0
	b.Subscribe("t", func(Message) { a++ })
	b.Subscribe("t", func(Message) { c++ })
	if n := b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("m")}); n != 2 {
		t.Fatalf("delivered %d", n)
	}
	if a != 1 || c != 1 {
		t.Fatalf("a=%d c=%d", a, c)
	}
	if st := b.Stats("t"); st.Delivered != 2 {
		t.Fatalf("stats %+v", st)
	}
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	b := NewBus()
	got := 0
	sub := b.Subscribe("t", func(Message) { got++ })
	b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("1")})
	sub.Close()
	b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("2")})
	if got != 1 {
		t.Fatalf("got %d", got)
	}
	if b.SubscriberCount("t") != 0 {
		t.Fatal("subscriber count not zero")
	}
	sub.Close() // idempotent
}

func TestMessageTypePreserved(t *testing.T) {
	b := NewBus()
	var types []MsgType
	b.Subscribe("t", func(m Message) { types = append(types, m.Type) })
	b.PublishJSON("t", []byte("{}"))
	b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("raw")})
	if types[0] != TypeJSON || types[1] != TypeString {
		t.Fatalf("types %v", types)
	}
	if TypeJSON.String() != "json" || TypeString.String() != "string" {
		t.Fatal("type names")
	}
}

func TestHandlerMayPublish(t *testing.T) {
	// A relay handler re-publishing to another tag must not deadlock.
	b := NewBus()
	final := 0
	b.Subscribe("upstream", func(Message) { final++ })
	b.Subscribe("local", func(m Message) { b.Publish(Message{Tag: "upstream", Type: m.Type, Data: m.Data}) })
	b.Publish(Message{Tag: "local", Type: TypeString, Data: []byte("relayed")})
	if final != 1 {
		t.Fatalf("relay delivered %d", final)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBus().Subscribe("t", nil)
}

func TestConcurrentPublish(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	got := 0
	b.Subscribe("t", func(Message) {
		mu.Lock()
		got++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("m")})
			}
		}()
	}
	wg.Wait()
	if got != 8000 {
		t.Fatalf("got %d", got)
	}
	if st := b.Stats("t"); st.Published != 8000 || st.Delivered != 8000 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTags(t *testing.T) {
	b := NewBus()
	b.Subscribe("a", func(Message) {})
	b.Subscribe("b", func(Message) {})
	if len(b.Tags()) != 2 {
		t.Fatalf("tags %v", b.Tags())
	}
}

// TestSubscriberReattachMidStream covers the handler-churn scenario: a
// subscriber closes mid-stream, publishes during the gap are counted as
// drops, and a replacement subscriber resumes delivery from its attach
// point — no replay, no stale delivery to the closed handler.
func TestSubscriberReattachMidStream(t *testing.T) {
	b := NewBus()
	var first, second []string
	sub := b.Subscribe("darshanConnector", func(m Message) { first = append(first, string(m.Data)) })
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("a")})
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("b")})
	sub.Close()

	// The gap: no subscriber, best-effort drops.
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("lost1")})
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("lost2")})
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("lost3")})

	b.Subscribe("darshanConnector", func(m Message) { second = append(second, string(m.Data)) })
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("c")})
	b.Publish(Message{Tag: "darshanConnector", Type: TypeString, Data: []byte("d")})

	if len(first) != 2 || first[0] != "a" || first[1] != "b" {
		t.Fatalf("first subscriber got %v, want [a b]", first)
	}
	if len(second) != 2 || second[0] != "c" || second[1] != "d" {
		t.Fatalf("reattached subscriber got %v, want [c d] (no replay of the gap)", second)
	}
	st := b.Stats("darshanConnector")
	if st.Published != 7 || st.Delivered != 4 || st.Dropped != 3 {
		t.Fatalf("stats %+v, want published 7 delivered 4 dropped 3", st)
	}
}

// TestPanickingHandlerIsErroredNotDropped pins the delivery-outcome
// accounting: a handler that panics is isolated (the other subscribers
// still receive), counts toward Errored, and is never folded into
// Dropped — dropped means "reached nobody", errored means "a receiver
// failed", and conflating them hid real handler bugs behind the normal
// best-effort drop noise.
func TestPanickingHandlerIsErroredNotDropped(t *testing.T) {
	b := NewBus()
	got := 0
	b.Subscribe("t", func(Message) { panic("broken subscriber") })
	b.Subscribe("t", func(Message) { got++ })
	if n := b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("m")}); n != 1 {
		t.Fatalf("publish returned %d receivers, want 1 (the healthy one)", n)
	}
	if got != 1 {
		t.Fatalf("healthy subscriber got %d", got)
	}
	st := b.Stats("t")
	if st.Published != 1 || st.Delivered != 1 || st.Errored != 1 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want published 1 delivered 1 errored 1 dropped 0", st)
	}
}

func TestSolePanickingHandlerCountsBothWays(t *testing.T) {
	// When the only receiver fails, the message both errored (a receiver
	// failed) and dropped (nobody got it) — the two counters answer
	// different questions and both must say so.
	b := NewBus()
	b.Subscribe("t", func(Message) { panic("x") })
	if n := b.Publish(Message{Tag: "t", Type: TypeString, Data: []byte("m")}); n != 0 {
		t.Fatalf("publish returned %d", n)
	}
	st := b.Stats("t")
	if st.Delivered != 0 || st.Errored != 1 || st.Dropped != 1 {
		t.Fatalf("stats %+v", st)
	}
}
