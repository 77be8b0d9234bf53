package faults

import (
	"testing"
	"time"

	"darshanldms/internal/ldms"
	"darshanldms/internal/streams"
)

func waitReceived(t *testing.T, srv *ldms.TCPServer, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Received() < want && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := srv.Received(); got < want {
		t.Fatalf("received %d, want >= %d", got, want)
	}
}

func TestTCPProxyKillAndPartition(t *testing.T) {
	agg := ldms.NewDaemon("agg", "head")
	srv, err := ldms.ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p, err := NewTCPProxy("127.0.0.1:0", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// The forward ldmsd -forward runs, through the proxy.
	node := ldms.NewDaemon("ldmsd", "nid00040")
	up, window, err := ldms.NewForward(node, "darshanConnector", 1024, streams.Block, ldms.UplinkConfig{
		Addr: p.Addr(), InitialBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	disconnected := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for up.Stats().Connected && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if up.Stats().Connected {
			t.Fatal("the uplink never saw its connection die")
		}
	}

	node.Bus().PublishJSON("darshanConnector", []byte(`{"n":1}`))
	waitReceived(t, srv, 1)

	// Kill the active connection mid-stream: the uplink redials through
	// the proxy, and what is published after the kill arrives.
	if n := p.KillConnections(); n != 1 {
		t.Fatalf("killed %d connections, want 1", n)
	}
	disconnected()
	for i := 0; i < 5; i++ {
		node.Bus().PublishJSON("darshanConnector", []byte(`{"n":2}`))
		time.Sleep(time.Millisecond)
	}
	waitReceived(t, srv, 6)

	// A partition black-holes the path: the proxy accepts each redial and
	// closes it unread, so nothing reaches the daemon. A round flushed into
	// such a connection counts as sent — the uplink's ack means flushed,
	// not stored — so the partition may cost what it swallowed.
	p.SetPartitioned(true)
	disconnected()
	for i := 0; i < 5; i++ {
		node.Bus().PublishJSON("darshanConnector", []byte(`{"n":4}`))
		time.Sleep(time.Millisecond)
	}
	if got := srv.Received(); got != 6 {
		t.Fatalf("received %d during partition, want still 6", got)
	}
	p.SetPartitioned(false)
	disconnected()

	// Once it heals, the next message goes through on a fresh redial.
	node.Bus().PublishJSON("darshanConnector", []byte(`{"n":5}`))
	waitReceived(t, srv, 7)

	if p.Accepted() < 3 {
		t.Fatalf("accepted %d, want >= 3", p.Accepted())
	}
	if st := window.Stats(); st.Dropped != 0 || st.Refused != 0 {
		t.Fatalf("window dropped %d and refused %d, want 0 and 0", st.Dropped, st.Refused)
	}
}
