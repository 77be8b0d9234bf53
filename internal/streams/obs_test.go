package streams

import (
	"strings"
	"testing"
	"time"

	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
)

// TestBusCollect: the bus collector exports the per-tag fan-out counters
// without touching the publish path.
func TestBusCollect(t *testing.T) {
	b := NewBus()
	sub := b.Subscribe("darshanConnector", func(m Message) {})
	defer sub.Close()
	if sub.Tag() != "darshanConnector" {
		t.Fatalf("subscription tag %q", sub.Tag())
	}
	for i := 0; i < 3; i++ {
		b.Publish(Message{Tag: "darshanConnector", Type: TypeJSON, Data: []byte("{}")})
	}
	b.Publish(Message{Tag: "nobody-home", Type: TypeJSON, Data: []byte("{}")})

	reg := obs.NewRegistry()
	b.Collect(reg, "node")
	out := reg.Render()
	for _, want := range []string{
		`dlc_bus_published_total{bus="node",tag="darshanConnector"} 3`,
		`dlc_bus_delivered_total{bus="node",tag="darshanConnector"} 3`,
		`dlc_bus_dropped_total{bus="node",tag="nobody-home"} 1`,
		`dlc_bus_subscribers{bus="node",tag="darshanConnector"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if got := b.String(); !strings.Contains(got, "streams.Bus") {
		t.Errorf("String() = %q", got)
	}

	// A nil registry is a no-op, not a panic (daemons run unobserved).
	b.Collect(nil, "node")
}

// TestStreamCollect: the stream collector exports retention accounting
// and every consumer's delivery state, with sorted, deterministic output.
func TestStreamCollect(t *testing.T) {
	var now time.Duration
	s, err := OpenStream(StreamConfig{
		Name:      "soak",
		Retention: RetentionPolicy{MaxMsgs: 2},
		Clock:     func() time.Duration { return now },
	}, sos.NewMemWAL())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := s.Append(Message{Tag: "darshan.nid00040.POSIX", Type: TypeJSON, Data: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	c, err := s.Consumer(ConsumerConfig{Name: "uplink"})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := c.Fetch(1)
	if err != nil || len(ds) != 1 {
		t.Fatalf("fetch: %v %d", err, len(ds))
	}
	if err := c.Ack(ds[0].Seq); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	s.Collect(reg)
	// The lag gauge holds its peak between scrapes: the fetch faced all
	// four messages, so that is what the first scrape reports, and the
	// next one is back to the backlog of the moment.
	if out := reg.Render(); !strings.Contains(out, `dlc_stream_consumer_lag{stream="soak",consumer="uplink"} 4`) {
		t.Errorf("first scrape does not hold the peak lag:\n%s", out)
	}
	out := reg.Render()
	for _, want := range []string{
		`dlc_stream_msgs{stream="soak"} 2`,
		`dlc_stream_appended_total{stream="soak"} 4`,
		`dlc_stream_dropped_total{stream="soak",reason="count"} 2`,
		`dlc_stream_consumer_ack_floor{stream="soak",consumer="uplink"} 3`,
		`dlc_stream_consumer_lag{stream="soak",consumer="uplink"} 1`,
		`dlc_stream_consumer_inflight{stream="soak",consumer="uplink"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}

	s.Collect(nil)
}
