package harness

import (
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/ldms"
	"darshanldms/internal/sim"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"
)

// Tests of the rebalance soak's hops: the shipped round step
// (ldms.Cursor) driven from sim procs.

// openSimStream opens an in-memory durable stream on the engine's clock.
func openSimStream(t *testing.T, e *sim.Engine, name string) *streams.DurableStream {
	t.Helper()
	s, err := streams.OpenStream(streams.StreamConfig{Name: name, Clock: e.Now}, sos.NewMemWAL())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// simStore is the store head's chain over a one-shard cluster: dedup ->
// ack ledger -> DSOS store.
type simStore struct {
	shard  *dsos.Daemon
	client *dsos.Client
	ack    *ackRecorder
	dedup  *ldms.DedupStore
}

func newSimStore(t *testing.T) *simStore {
	t.Helper()
	c := dsos.NewCluster(1, rebalanceContainer)
	c.EnableWAL(nil)
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	st := &simStore{shard: c.Daemons()[0], client: dsos.Connect(c)}
	st.ack = newAckRecorder(ldms.NewDSOSStore(st.client))
	st.dedup = ldms.NewDedupStore(st.ack)
	return st
}

// start runs the store head over s; a dead letter or a partial round
// fails the test.
func (st *simStore) start(t *testing.T, e *sim.Engine, s *streams.DurableStream) *streams.Consumer {
	t.Helper()
	cons, err := startStoreHop(e, s, st.dedup,
		func(err error) { t.Errorf("dead-lettered: %v", err) },
		func(err error) { t.Errorf("partial round: %v", err) })
	if err != nil {
		t.Fatal(err)
	}
	return cons
}

// A leaf's hop keeps its ack floor across a re-home: the parent dies
// mid-stream, the hop flips to the standby and resumes from the floor, so
// every message reaches a parent at least once and the floor never
// regresses.
func TestSoakHopRehomePreservesAckFloor(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	tr := topo.NewTree(e.Now, 3)
	rootBus, aBus, bBus := streams.NewBus(), streams.NewBus(), streams.NewBus()
	for _, s := range []topo.Spec{
		{Name: "root", Role: topo.RoleRoot, Bus: rootBus},
		{Name: "aggA", Role: topo.RoleAgg, Parent: "root", Bus: aBus},
		{Name: "aggB", Role: topo.RoleAgg, Parent: "root", Bus: bBus},
		{Name: "leaf", Role: topo.RoleLeaf, Parent: "aggA", Standby: "aggB", Bus: streams.NewBus()},
	} {
		if err := tr.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	leafStream := openSimStream(t, e, "leaf")
	var gotA, gotB int
	aBus.Subscribe("data", func(streams.Message) { gotA++ })
	bBus.Subscribe("data", func(streams.Message) { gotB++ })

	h, err := startTreeHop(e, tr, "leaf", leafStream)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(2 * time.Millisecond)
			if _, err := leafStream.Append(streams.Message{Tag: "data", Data: []byte{byte('0' + i%10)}}); err != nil {
				panic(err)
			}
		}
	})
	e.At(40*time.Millisecond, func() { tr.Crash("aggA") })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if err := e.Drain(2 * time.Second); err != nil {
		t.Fatal(err)
	}

	if tr.Parent("leaf") != "aggB" {
		t.Fatalf("leaf parent = %s", tr.Parent("leaf"))
	}
	if h.regressions != 0 {
		t.Fatalf("ack floor regressed %d times across re-home", h.regressions)
	}
	if h.floor != n {
		t.Fatalf("ack floor %d, want %d (backlog not drained)", h.floor, n)
	}
	if gotA == 0 || gotB == 0 {
		t.Fatalf("expected traffic on both parents: A=%d B=%d", gotA, gotB)
	}
	if gotA+gotB < n {
		t.Fatalf("parents saw %d messages, want >= %d", gotA+gotB, n)
	}
}

// The round step in virtual time: an empty stream returns at once, a
// refused round is naked whole until the owner is back, and a crash
// inside a tree hop's ack gap redelivers the round for dedup to absorb.
func TestSoakHopRoundStep(t *testing.T) {
	t.Run("empty stream returns at once", func(t *testing.T) {
		e := sim.NewEngine()
		defer e.Close()
		s := openSimStream(t, e, "head")
		cons, err := s.Consumer(streams.ConsumerConfig{Name: "store"})
		if err != nil {
			t.Fatal(err)
		}
		st := newSimStore(t)
		cur := ldms.NewCursor(cons, ldms.RoundSize)
		ran := false
		e.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(time.Millisecond)
			msgs, ends, err := cur.Next()
			if msgs != nil || ends != nil || err != nil {
				t.Errorf("Next on an empty stream = %v, %v, %v", msgs, ends, err)
			}
			if err := cur.Commit(st.dedup, func(err error) { t.Errorf("dead-lettered: %v", err) }); err != nil {
				t.Errorf("Commit of an empty round: %v", err)
			}
			if now := e.Now(); now != time.Millisecond {
				t.Errorf("the empty round took virtual time: now %v", now)
			}
			ran = true
		})
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		if !ran {
			t.Fatal("probe did not run")
		}
		if cs := cons.Stats(); cs.Delivered != 0 || cs.Naks != 0 || cs.Acked != 0 {
			t.Fatalf("consumer moved on an empty stream: %+v", cs)
		}
	})

	t.Run("refused round is naked whole and stored after restart", func(t *testing.T) {
		e := sim.NewEngine()
		defer e.Close()
		s := openSimStream(t, e, "head")
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := s.Append(soakRecord("leaf-00", 0, i)); err != nil {
				t.Fatal(err)
			}
		}
		st := newSimStore(t)
		st.shard.Crash()
		cons := st.start(t, e, s)
		var ackedWhileDown uint64
		e.At(50*time.Millisecond, func() {
			ackedWhileDown, _ = st.ack.snapshot()
			if err := st.shard.Restart(); err != nil {
				t.Error(err)
			}
		})
		if err := e.Drain(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		cs := cons.Stats()
		if ackedWhileDown != 0 {
			t.Fatalf("%d messages acked while the only owner was down", ackedWhileDown)
		}
		if cs.Naks == 0 || cs.Naks%n != 0 {
			t.Fatalf("%d naks, want whole rounds of %d", cs.Naks, n)
		}
		if cs.AckFloor != n || cs.Acked != n {
			t.Fatalf("consumer after the restart: %+v, want all %d acked", cs, n)
		}
		if acked, _ := st.ack.snapshot(); acked != n {
			t.Fatalf("ack ledger holds %d, want %d", acked, n)
		}
		if got := st.client.Count(dsos.DarshanSchemaName); got != n {
			t.Fatalf("%d rows stored, want %d", got, n)
		}
	})

	t.Run("crash inside the ack gap redelivers the round", func(t *testing.T) {
		e := sim.NewEngine()
		defer e.Close()
		tr := topo.NewTree(e.Now, 3)
		headBus := streams.NewBus()
		head := openSimStream(t, e, "head")
		if err := headBus.BindStream(head); err != nil {
			t.Fatal(err)
		}
		for _, sp := range []topo.Spec{
			{Name: "head", Role: topo.RoleRoot, Bus: headBus},
			{Name: "leaf", Role: topo.RoleLeaf, Parent: "head", Bus: streams.NewBus()},
		} {
			if err := tr.Add(sp); err != nil {
				t.Fatal(err)
			}
		}
		leaf := openSimStream(t, e, "leaf")
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := leaf.Append(soakRecord("leaf", 0, i)); err != nil {
				t.Fatal(err)
			}
		}
		h, err := startTreeHop(e, tr, "leaf", leaf)
		if err != nil {
			t.Fatal(err)
		}
		st := newSimStore(t)
		st.start(t, e, head)
		// The first poll (5ms) hands the round on; the crash lands inside
		// its 1ms ack gap.
		e.At(hopPollEvery+hopAckGap/2, func() { tr.Crash("leaf") })
		e.At(20*time.Millisecond, func() {
			tr.Restart("leaf")
			h.cons.Redeliver()
		})
		if err := e.Drain(200 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if h.ackLost != n {
			t.Fatalf("ack lost for %d deliveries, want the round of %d", h.ackLost, n)
		}
		if h.floor != n || h.regressions != 0 {
			t.Fatalf("leaf floor %d with %d regressions, want %d and 0", h.floor, h.regressions, n)
		}
		if got := head.Stats().LastSeq; got != 2*n {
			t.Fatalf("head stream holds %d messages, want the round twice (%d)", got, 2*n)
		}
		if d := st.dedup.Duplicates(); d != n {
			t.Fatalf("dedup absorbed %d, want the %d copies", d, n)
		}
		if got := st.client.Count(dsos.DarshanSchemaName); got != n {
			t.Fatalf("%d rows stored, want %d", got, n)
		}
	})
}
