package ldms

import (
	"testing"
	"time"

	"darshanldms/internal/sos"
)

func fastFailover(primary, standby string) UplinkConfig {
	return UplinkConfig{
		Addr:           primary,
		Standby:        standby,
		ProbeEvery:     5 * time.Millisecond,
		FailAfter:      3,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		DialTimeout:    100 * time.Millisecond,
		AckWait:        50 * time.Millisecond,
		Seed:           1,
	}
}

func TestFailoverUplinkConfigErrors(t *testing.T) {
	s := openTestStream(t, sos.NewMemWAL())
	if _, err := NewStreamUplink(s, UplinkConfig{Standby: "a:1"}); err == nil {
		t.Fatal("standby without a primary accepted")
	}
	if _, err := NewStreamUplink(s, UplinkConfig{Addr: "a:1", Standby: "a:1"}); err == nil {
		t.Fatal("standby == primary accepted")
	}
}

// TestFailoverUplinkSwitchesToStandby kills the primary aggregator
// mid-stream and checks the full backlog lands on the standby with the
// consumer's ack floor intact: the durable cursor survives the re-home,
// so nothing acked is re-sent from zero and nothing unacked is dropped.
func TestFailoverUplinkSwitchesToStandby(t *testing.T) {
	prim := NewDaemon("agg-primary", "head")
	psrv, err := ListenTCP(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	pstore := &seqStore{}
	prim.AttachStore("darshanConnector", pstore)

	stby := NewDaemon("agg-standby", "head")
	ssrv, err := ListenTCP(stby, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ssrv.Close()
	sstore := &seqStore{}
	stby.AttachStore("darshanConnector", sstore)

	s := openTestStream(t, sos.NewMemWAL())
	const n = 40
	for i := 0; i < n/2; i++ {
		appendSeq(t, s, i)
	}
	f, err := NewStreamUplink(s, fastFailover(psrv.Addr(), ssrv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Sample the ack floor for the whole run: it must never move backward,
	// the re-home included.
	stopSampling := make(chan struct{})
	regressed := make(chan [2]uint64, 1)
	go func() {
		var last uint64
		for {
			floor := f.Stats().Consumer.AckFloor
			if floor < last {
				regressed <- [2]uint64{last, floor}
				return
			}
			last = floor
			select {
			case <-stopSampling:
				close(regressed)
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()

	waitFor(t, "first half on primary", func() bool { return len(pstore.Seqs()) >= n/2 })
	psrv.Close() // primary dies; probes start missing
	// An append now wakes the uplink at once, so without this wait the
	// second half could be written into the dead primary's socket before
	// the close is noticed — frames of unknown fate, which no uplink
	// resends and this test does not measure.
	waitFor(t, "disconnect detection", func() bool { return !f.Stats().Connected })

	for i := n / 2; i < n; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "failover to standby", func() bool { return f.Stats().Active == ssrv.Addr() })
	waitFor(t, "second half on standby", func() bool { return len(sstore.Seqs()) >= n/2 })

	st := f.Stats()
	if st.Switches != 1 {
		t.Fatalf("switches = %d", st.Switches)
	}
	if st.Consumer.AckFloor != n {
		t.Fatalf("ack floor %d, want %d", st.Consumer.AckFloor, n)
	}
	close(stopSampling)
	if r, bad := <-regressed; bad {
		t.Fatalf("ack floor regressed across the switch: %d -> %d", r[0], r[1])
	}
	// The consumer was claimed exactly once: the same cursor object served
	// both targets, so it is still open and its first-delivery count covers
	// the whole run (a second claim would have restarted it from the floor).
	if st.Consumer.Closed || st.Consumer.Delivered != n {
		t.Fatalf("consumer re-claimed across the switch: closed=%v delivered=%d, want open/%d",
			st.Consumer.Closed, st.Consumer.Delivered, n)
	}
	// Union of both aggregators covers every sequence number.
	got := map[int]bool{}
	for _, q := range pstore.Seqs() {
		got[q] = true
	}
	for _, q := range sstore.Seqs() {
		got[q] = true
	}
	for i := 0; i < n; i++ {
		if !got[i] {
			t.Fatalf("seq %d reached neither aggregator", i)
		}
	}
}

// TestFailoverUplinkCloseIsClean checks the prober goroutine exits on
// Close (goroleak-style, without the sleepy heuristics: Close blocks on
// the waitgroup, so returning at all is the proof).
func TestFailoverUplinkCloseIsClean(t *testing.T) {
	prim := NewDaemon("p", "head")
	psrv, err := ListenTCP(prim, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer psrv.Close()
	s := openTestStream(t, sos.NewMemWAL())
	f, err := NewStreamUplink(s, fastFailover(psrv.Addr(), "127.0.0.1:1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
}
