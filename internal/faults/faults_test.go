package faults

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

func streamsMessage(body string) streams.Message {
	return streams.Message{Tag: tag, Type: streams.TypeJSON, Data: []byte(body)}
}

const tag = "darshanConnector"

// publishEvery schedules n publishes on src at a fixed virtual-time cadence
// starting at t=0.
func publishEvery(e *sim.Engine, src *ldms.Daemon, n int, every time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		e.At(time.Duration(i)*every, func() {
			src.Bus().PublishJSON(tag, []byte(fmt.Sprintf(`{"seq":%d}`, i)))
		})
	}
}

func TestLinkPartitionDropsThenHeals(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	src := ldms.NewDaemon("node", "nid00040")
	dst := ldms.NewDaemon("agg", "head")
	count := &ldms.CountStore{}
	dst.AttachStore(tag, count)
	l := NewLink(e, src, dst, tag, 100*time.Microsecond)

	c := NewController(e)
	c.RegisterLink("uplink", l)
	// 20 messages at 10ms cadence; partition covers t=[50ms,100ms) i.e.
	// publishes 5..9.
	publishEvery(e, src, 20, 10*time.Millisecond)
	err := c.Apply(Profile{Name: "partition", Events: []Event{
		{Kind: LinkPartition, Target: "uplink", At: 50 * time.Millisecond, Duration: 50 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Dropped != 5 {
		t.Fatalf("dropped %d, want 5", st.Dropped)
	}
	if st.Forwarded != 15 || count.Count() != 15 {
		t.Fatalf("forwarded %d delivered %d, want 15/15", st.Forwarded, count.Count())
	}
	if len(c.Log()) != 2 {
		t.Fatalf("fault log %v, want 2 records", c.Log())
	}
}

func TestSlowSubscriberStallRecovers(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	src := ldms.NewDaemon("node", "nid00041")
	dst := ldms.NewDaemon("agg", "head")
	count := &ldms.CountStore{}
	dst.AttachStore(tag, count)
	l := NewLink(e, src, dst, tag, 0)

	c := NewController(e)
	c.RegisterLink("uplink", l)
	publishEvery(e, src, 20, 10*time.Millisecond)
	err := c.Apply(Profile{Name: "stall", Events: []Event{
		{Kind: SlowSubscriber, Target: "uplink", At: 50 * time.Millisecond, Duration: 100 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	// Publishes 5..14 are queued during the stall and released at t=150ms:
	// nothing is lost, 10 are recovered.
	if st.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", st.Dropped)
	}
	if st.Recovered != 10 {
		t.Fatalf("recovered %d, want 10", st.Recovered)
	}
	if count.Count() != 20 {
		t.Fatalf("delivered %d, want all 20", count.Count())
	}
}

func TestStallBufferOverflowSheds(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	src := ldms.NewDaemon("node", "nid00042")
	dst := ldms.NewDaemon("agg", "head")
	l := NewLink(e, src, dst, tag, 0)
	l.maxQueue = 3

	l.Stall() // stalled before the run starts
	publishEvery(e, src, 10, time.Millisecond)
	e.At(50*time.Millisecond, func() { l.Unstall() })
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Recovered != 3 {
		t.Fatalf("recovered %d, want 3 (queue bound)", st.Recovered)
	}
	if st.Dropped != 7 {
		t.Fatalf("dropped %d, want 7", st.Dropped)
	}
}

func TestLatencySpikeDelaysDelivery(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	src := ldms.NewDaemon("node", "nid00043")
	dst := ldms.NewDaemon("agg", "head")
	var arrivals []time.Duration
	dst.Bus().Subscribe(tag, func(m streams.Message) {
		arrivals = append(arrivals, e.Now())
	})
	l := NewLink(e, src, dst, tag, time.Millisecond)

	c := NewController(e)
	c.RegisterLink("uplink", l)
	// Publishes at 0,10,20,30ms; the spike covers t=[5ms,25ms) so the
	// middle two arrive base+extra later.
	publishEvery(e, src, 4, 10*time.Millisecond)
	err := c.Apply(Profile{Name: "spike", Events: []Event{
		{Kind: LatencySpike, Target: "uplink", At: 5 * time.Millisecond,
			Duration: 20 * time.Millisecond, Extra: 7 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{
		1 * time.Millisecond,  // t=0 + base 1ms
		18 * time.Millisecond, // t=10 + 1ms + 7ms spike
		28 * time.Millisecond, // t=20 + 1ms + 7ms spike
		31 * time.Millisecond, // t=30 + base 1ms (spike over)
	}
	// Arrivals are sorted because the engine delivers in time order.
	sortDurations(arrivals)
	if !reflect.DeepEqual(arrivals, want) {
		t.Fatalf("arrivals %v, want %v", arrivals, want)
	}
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func TestDaemonCrashCutsAllLinks(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	node := ldms.NewDaemon("node", "nid00044")
	head := ldms.NewDaemon("agg", "head")
	remote := ldms.NewDaemon("agg", "remote")
	count := &ldms.CountStore{}
	remote.AttachStore(tag, count)
	links := []*Link{NewLink(e, node, head, tag, 100*time.Microsecond), NewLink(e, head, remote, tag, 100*time.Microsecond)}

	c := NewController(e)
	crash, restart := CrashDaemon(links...)
	c.RegisterCrash("head", crash, restart)
	publishEvery(e, node, 20, 10*time.Millisecond)
	err := c.Apply(Profile{Name: "crash", Events: []Event{
		{Kind: DaemonCrash, Target: "head", At: 25 * time.Millisecond, Duration: 50 * time.Millisecond},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	// Publishes 3..7 (t=30..70ms) hit the cut first hop.
	if got := links[0].Stats().Dropped; got != 5 {
		t.Fatalf("first hop dropped %d, want 5", got)
	}
	if count.Count() != 15 {
		t.Fatalf("delivered %d, want 15", count.Count())
	}
}

func TestApplyRejectsUnknownTargets(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	c := NewController(e)
	for _, p := range []Profile{
		{Name: "p1", Events: []Event{{Kind: LinkPartition, Target: "nope", At: 0}}},
		{Name: "p2", Events: []Event{{Kind: DaemonCrash, Target: "nope", At: 0}}},
		{Name: "p3", Events: []Event{{Kind: StoreFault, Target: "nope", At: 0}}},
	} {
		if err := c.Apply(p); err == nil {
			t.Fatalf("profile %s: expected error for unknown target", p.Name)
		}
	}
}

// runScenario builds a fixed topology, applies a RandomProfile drawn from
// seed, runs it, and returns (fault log, delivered, dropped) — used to prove
// two same-seed campaigns replay bit-for-bit.
func runScenario(t *testing.T, seed uint64) ([]string, uint64, uint64) {
	t.Helper()
	e := sim.NewEngine()
	defer e.Close()
	node := ldms.NewDaemon("node", "nid00045")
	head := ldms.NewDaemon("agg", "head")
	remote := ldms.NewDaemon("agg", "remote")
	count := &ldms.CountStore{}
	remote.AttachStore(tag, count)
	links := []*Link{NewLink(e, node, head, tag, 150*time.Microsecond), NewLink(e, head, remote, tag, 150*time.Microsecond)}

	c := NewController(e)
	c.RegisterLink("uplink", links[0])
	c.RegisterLink("downlink", links[1])
	crash, restart := CrashDaemon(links...)
	c.RegisterCrash("head", crash, restart)

	r := rng.New(seed).Derive("faults")
	p := RandomProfile(r, "random", time.Second, 8,
		[]string{"uplink", "downlink"}, []string{"head"})
	publishEvery(e, node, 100, 10*time.Millisecond)
	if err := c.Apply(p); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	var log []string
	for _, rec := range c.Log() {
		log = append(log, rec.String())
	}
	dropped := links[0].Stats().Dropped + links[1].Stats().Dropped
	return log, uint64(count.Count()), dropped
}

func TestCampaignDeterministicUnderFixedSeed(t *testing.T) {
	log1, del1, drop1 := runScenario(t, 2022)
	log2, del2, drop2 := runScenario(t, 2022)
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("fault logs differ:\n%v\n%v", log1, log2)
	}
	if del1 != del2 || drop1 != drop2 {
		t.Fatalf("counts differ: %d/%d vs %d/%d", del1, drop1, del2, drop2)
	}
	if len(log1) == 0 {
		t.Fatal("expected a non-empty fault log")
	}
	// A different seed must yield a different schedule (overwhelmingly).
	log3, _, _ := runScenario(t, 99)
	if reflect.DeepEqual(log1, log3) {
		t.Fatal("different seeds produced identical fault logs")
	}
}

func TestRandomProfileDeterministic(t *testing.T) {
	links := []string{"a", "b"}
	daemons := []string{"d"}
	p1 := RandomProfile(rng.New(7), "r", time.Second, 16, links, daemons)
	p2 := RandomProfile(rng.New(7), "r", time.Second, 16, links, daemons)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different profiles")
	}
	if len(p1.Events) != 16 {
		t.Fatalf("got %d events, want 16", len(p1.Events))
	}
	for i := 1; i < len(p1.Events); i++ {
		if p1.Events[i].At < p1.Events[i-1].At {
			t.Fatal("events not sorted by start time")
		}
	}
}

func TestFlakyStoreInjection(t *testing.T) {
	inner := &ldms.CountStore{}
	fs := NewFlakyStore(inner, rng.New(1).Derive("flaky"), 1.0) // always fail while active
	m := streamsMessage(`{"n":1}`)
	if err := fs.Store(m); err != nil {
		t.Fatalf("inactive store failed: %v", err)
	}
	fs.SetActive(true)
	if err := fs.Store(m); err != errInjected {
		t.Fatalf("expected injected failure, got %v", err)
	}
	fs.SetActive(false)
	if err := fs.Store(m); err != nil {
		t.Fatalf("healed store failed: %v", err)
	}
	if fs.Failed() != 1 || inner.Count() != 2 {
		t.Fatalf("failed=%d inner=%d, want 1/2", fs.Failed(), inner.Count())
	}
}
