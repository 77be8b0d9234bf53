package ldms

import (
	"bytes"
	"cmp"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func fastUplink(addr string) UplinkConfig {
	return UplinkConfig{
		Addr:           addr,
		InitialBackoff: time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		DialTimeout:    200 * time.Millisecond,
		AckWait:        100 * time.Millisecond,
		Seed:           1,
	}
}

func openTestStream(t *testing.T, wal sos.WALStore) *streams.DurableStream {
	t.Helper()
	s, err := streams.OpenStream(streams.StreamConfig{
		Name:  "fwd",
		Clock: func() time.Duration { return time.Duration(time.Now().UnixNano()) },
	}, wal)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func appendSeq(t *testing.T, s *streams.DurableStream, i int) {
	t.Helper()
	_, err := s.Append(streams.Message{
		Tag: "darshanConnector", Type: streams.TypeJSON,
		Data:     []byte(fmt.Sprintf(`{"seq":%d}`, i)),
		Producer: "nid00040", Seq: uint64(i),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestStreamUplinkDelivers is the basic path: messages appended to a
// durable stream arrive at the remote daemon, acked as they go.
func TestStreamUplinkDelivers(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	store := &seqStore{}
	agg.AttachStore("darshanConnector", store)

	s := openTestStream(t, sos.NewMemWAL())
	for i := 0; i < 5; i++ {
		appendSeq(t, s, i)
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delivery", func() bool { return len(store.Seqs()) == 5 })
	st := u.Stats()
	if st.Sent != 5 || st.Consumer.AckFloor != 5 {
		t.Fatalf("stats %+v", st)
	}
}

// TestStreamUplinkSurvivesAggregatorRestart mirrors the forwarder's
// acceptance scenario on the durable path: the aggregator dies
// mid-stream, messages keep accumulating in the stream (not a volatile
// spool), and after a restart on the same address everything unacked is
// delivered — nothing lost, no overflow policy needed.
func TestStreamUplinkSurvivesAggregatorRestart(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	s := openTestStream(t, sos.NewMemWAL())
	u, err := NewStreamUplink(s, fastUplink(addr))
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	for i := 0; i < 5; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "first batch", func() bool { return srv.Received() == 5 })

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "disconnect detection", func() bool { return !u.Stats().Connected })
	for i := 5; i < 15; i++ {
		appendSeq(t, s, i)
	}
	waitFor(t, "outage naks", func() bool { return u.Stats().Naks >= 1 })

	agg2 := NewDaemon("agg", "head")
	store := &seqStore{}
	agg2.AttachStore("darshanConnector", store)
	srv2, err := ListenTCP(agg2, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "catch-up", func() bool { return srv2.Received() >= 10 })
	if st := u.Stats(); st.Consumer.AckFloor != 15 {
		t.Fatalf("ack floor %d, want 15", st.Consumer.AckFloor)
	}
}

// TestStreamUplinkCrashResumesFromCursor is the durable half the
// forwarder cannot offer: the uplink (and its stream object) is torn
// down entirely — a process crash — and a successor reopened from the
// same segment resumes from the acked floor, re-sending only what was
// never acked. A DedupStore on the receiver absorbs the overlap, so the
// stored sequence is exactly-once.
func TestStreamUplinkCrashResumesFromCursor(t *testing.T) {
	agg := NewDaemon("agg", "head")
	srv, err := ListenTCP(agg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	inner := &seqStore{}
	store := NewDedupStore(inner)
	agg.AttachStore("darshanConnector", store)

	wal := sos.NewMemWAL()
	s := openTestStream(t, wal)
	for i := 0; i < 6; i++ {
		appendSeq(t, s, i)
	}
	u, err := NewStreamUplink(s, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	u.Close() // "crash": only the segment bytes survive

	s2 := openTestStream(t, wal)
	for i := 6; i < 10; i++ {
		appendSeq(t, s2, i)
	}
	u2, err := NewStreamUplink(s2, fastUplink(srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer u2.Close()
	if err := u2.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed delivery", func() bool { return len(inner.Seqs()) == 10 })
	seqs := inner.Seqs()
	for i, got := range seqs {
		if got != i {
			t.Fatalf("stored seqs %v, want 0..9 exactly once", seqs)
		}
	}
	if st := u2.Stats(); st.Consumer.AckFloor != 10 {
		t.Fatalf("successor floor %d, want 10", st.Consumer.AckFloor)
	}
}

func TestStreamUplinkConfigValidation(t *testing.T) {
	if _, err := NewStreamUplink(nil, UplinkConfig{Addr: "x"}); err == nil {
		t.Fatal("nil stream accepted")
	}
	s := openTestStream(t, sos.NewMemWAL())
	if _, err := NewStreamUplink(s, UplinkConfig{}); err == nil {
		t.Fatal("addressless uplink accepted")
	}
}

// captureServer accepts connections and records every byte each one
// carries, in accept order — the wire as the upstream daemon would see it.
type captureServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
	bytes [][]byte
}

func listenCapture(t *testing.T, addr string) *captureServer {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := &captureServer{ln: ln}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			c.mu.Lock()
			i := len(c.conns)
			c.conns = append(c.conns, conn)
			c.bytes = append(c.bytes, nil)
			c.mu.Unlock()
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				buf := make([]byte, 32<<10)
				for {
					n, err := conn.Read(buf)
					c.mu.Lock()
					c.bytes[i] = append(c.bytes[i], buf[:n]...)
					c.mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(c.close)
	return c
}

func (c *captureServer) addr() string { return c.ln.Addr().String() }

// accepted returns how many connections have been accepted so far.
func (c *captureServer) accepted() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// settle returns how many connections have been accepted once every
// connection dialed before the call has been: it dials one of its own,
// which the listen queue hands out after all of them, and waits for it.
// The count includes that one.
func (c *captureServer) settle(t *testing.T) int {
	t.Helper()
	conn, err := net.Dial("tcp", c.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mine := conn.LocalAddr().String()
	n := 0
	waitFor(t, "the listen queue to drain", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, sc := range c.conns {
			if sc.RemoteAddr().String() == mine {
				n = i + 1
				return true
			}
		}
		return false
	})
	return n
}

// captured returns a copy of the bytes connection i has carried so far.
func (c *captureServer) captured(i int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= len(c.bytes) {
		return nil
	}
	return append([]byte(nil), c.bytes[i]...)
}

// kill closes connection i from the server side.
func (c *captureServer) kill(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conns[i].Close()
}

func (c *captureServer) close() {
	c.ln.Close()
	c.mu.Lock()
	for _, conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()
}

// TestUplinkWireIdentity pins the bytes an uplink writes. For a fixed
// seeded sequence — typed records and opaque payloads, one heartbeat, one
// reconnect — every configuration must put on the wire exactly what
// WriteFrame / WriteBatchFrame produce for the same sequence: dsosd
// persists what arrives, so a byte of drift here is a byte of drift in
// disk_bytes_per_event and a break with older peers. A round is exactly
// WriteBatchFrame of each stored-batch run of the messages the stream was
// given — they rest in the stream in the same codec, so nothing is
// re-rendered — whether the stream is the segment-backed one or the
// memory-only spool the daemon's bus feeds one message at a time.
func TestUplinkWireIdentity(t *testing.T) {
	r := rng.New(14)
	msgs := make([]streams.Message, 8)
	for i := range msgs {
		seq := uint64(i + 1)
		if i%2 == 0 {
			msgs[i] = typedMsg(seq)
			continue
		}
		pad := make([]byte, 8+r.Intn(48))
		for j := range pad {
			pad[j] = byte('a' + r.Intn(26))
		}
		msgs[i] = streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON,
			Data:     []byte(fmt.Sprintf(`{"seq":%d,"pad":"%s"}`, seq, pad)),
			Producer: "nid00040", Seq: seq,
		}
	}
	frames := func(ms ...streams.Message) []byte {
		var b bytes.Buffer
		for _, m := range ms {
			if err := WriteFrame(&b, m); err != nil {
				t.Fatal(err)
			}
		}
		return b.Bytes()
	}
	batch := func(ms ...streams.Message) []byte {
		var b bytes.Buffer
		if err := WriteBatchFrame(&b, ms); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

	// The script, identical for every configuration: six messages reach
	// the first connection (message 1 alone in the first round, the rest
	// queued behind it), then one heartbeat; the peer kills the
	// connection; messages 7 and 8 follow one at a time on the second
	// connection. What a dying connection had flushed is not resent.
	tail := cat(batch(msgs[6]), batch(msgs[7]))
	cases := []struct {
		name  string
		spool bool
		round int // BatchSize (0 = default)
		want  [2][]byte
	}{
		// The spool's messages are appended one at a time, so a round is
		// one run: one frame, however many messages it holds.
		{"spool", true, 0, [2][]byte{cat(batch(msgs[:6]...), frames(heartbeat)), tail}},
		{"spool+batch", true, 3, [2][]byte{
			cat(batch(msgs[:3]...), batch(msgs[3:6]...), frames(heartbeat)), tail,
		}},
		{"consumer", false, 0, [2][]byte{
			cat(batch(msgs[0]), batch(msgs[1:6]...), frames(heartbeat)), tail,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := deadAddr(t)
			cfg := fastUplink(addr)
			cfg.BatchSize = tc.round
			var (
				u       *Uplink
				publish func(...streams.Message)
				err     error
			)
			if tc.spool {
				node := NewDaemon("node", "nid00040")
				publish = func(ms ...streams.Message) {
					for _, m := range ms {
						node.Bus().Publish(m)
					}
				}
				u, _ = spoolUplink(t, node, cfg, 1024, streams.DropOldest)
			} else {
				// One AppendBatch per call: the stream shows the cursor all
				// of them or none, so the round that finally gets through
				// holds exactly the six, one frame per stored batch.
				s := openTestStream(t, sos.NewMemWAL())
				publish = func(ms ...streams.Message) {
					if _, err := s.AppendBatch(ms); err != nil {
						t.Error(err)
					}
				}
				u, err = NewStreamUplink(s, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()

			// With the peer down, message 1 is taken as a round of its own
			// and retried; 2..6 queue up behind it, so the rounds that follow
			// once the peer is up are the same on every run.
			publish(msgs[0])
			waitFor(t, "message 1 in hand", func() bool { return u.Stats().Retries >= 1 })
			publish(msgs[1:6]...)
			srv := listenCapture(t, addr)
			waitFor(t, "first six sent", func() bool { return u.Stats().Sent == 6 })
			if err := u.send([]streams.Message{heartbeat}, nil, nil, false); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "first connection's bytes", func() bool { return len(srv.captured(0)) >= len(tc.want[0]) })
			srv.kill(0)
			waitFor(t, "disconnect detection", func() bool { return !u.Stats().Connected })
			for i, m := range msgs[6:] {
				publish(m)
				waitFor(t, "tail message sent", func() bool { return u.Stats().Sent == uint64(7+i) })
			}
			waitFor(t, "second connection's bytes", func() bool { return len(srv.captured(1)) >= len(tc.want[1]) })
			for i, want := range tc.want {
				if got := srv.captured(i); !bytes.Equal(got, want) {
					t.Errorf("connection %d carried %d bytes, want %d; first difference at offset %d",
						i+1, len(got), len(want), firstDiff(got, want))
				}
			}
			if st := u.Stats(); st.Dials != 2 {
				t.Errorf("dials %d, want 2", st.Dials)
			}
		})
	}

	// A stream uplink writes a run that is one whole stored batch as the
	// body it is stored as, and every other run with
	// WriteBatchFrame over its decoded messages: messages appended alone,
	// a batch trimmed at its head or cut by the round. The wire is the
	// same either way, a redelivered batch included.
	stored := []struct {
		name    string
		keep    int // retention MaxMsgs (0 = unbounded)
		round   int // BatchSize (0 = default)
		appends [][]streams.Message
		dead    bool // the first round fails and is naked whole
		want    []byte
	}{
		{"whole batches", 0, 0, [][]streams.Message{msgs[:3], msgs[3:]}, false, cat(batch(msgs[:3]...), batch(msgs[3:]...))},
		{"appended alone", 0, 0, [][]streams.Message{msgs[:1], msgs[1:2], msgs[2:3]}, false, batch(msgs[:3]...)},
		{"mid-batch after a trim", 5, 0, [][]streams.Message{msgs}, false, batch(msgs[3:]...)},
		{"cut by the round", 0, 5, [][]streams.Message{msgs}, false, cat(batch(msgs[:5]...), batch(msgs[5:]...))},
		{"nak then redeliver", 0, 0, [][]streams.Message{msgs[:6]}, true, batch(msgs[:6]...)},
	}
	for _, tc := range stored {
		t.Run("stored-bodies/"+tc.name, func(t *testing.T) {
			s, err := streams.OpenStream(streams.StreamConfig{Name: "fwd", Retention: streams.RetentionPolicy{MaxMsgs: tc.keep}}, sos.NewMemWAL())
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, ms := range tc.appends {
				if _, err := s.AppendBatch(ms); err != nil {
					t.Fatal(err)
				}
				n += len(ms)
			}
			n = min(n, s.Stats().Msgs)
			addr := deadAddr(t)
			cfg := fastUplink(addr)
			cfg.BatchSize = tc.round
			u, err := NewStreamUplink(s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer u.Close()
			if tc.dead {
				waitFor(t, "a failed round", func() bool { return u.Stats().Retries >= 1 })
			}
			srv := listenCapture(t, addr)
			waitFor(t, "every message sent", func() bool { return u.Stats().Sent == uint64(n) })
			waitFor(t, "the connection's bytes", func() bool { return len(srv.captured(0)) >= len(tc.want) })
			if got := srv.captured(0); !bytes.Equal(got, tc.want) {
				t.Errorf("carried %d bytes, want %d; first difference at offset %d", len(got), len(tc.want), firstDiff(got, tc.want))
			}
		})
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestUplinkLifecycle is the one lifecycle, tested once: for every stream
// — the memory-only spool of ldmsd -reconnect, the segment-backed stream
// of ldmsd -stream — and target set, Close returns whatever the uplink is
// in the middle of, is idempotent, never dials afterwards and joins every
// goroutine.
func TestUplinkLifecycle(t *testing.T) {
	type situation = func(t *testing.T, u *Uplink, s *streams.DurableStream, publish func(int)) (after func(t *testing.T))
	situations := []struct {
		name      string
		spoolOnly bool
		peerUp    bool
		cfg       func(*UplinkConfig)
		size      int // the spool's window (default 1024)
		policy    streams.OverflowPolicy
		// enter drives the uplink into the situation; the returned func (if
		// any) is checked after Close.
		enter situation
	}{
		{name: "idle after a clean drain", peerUp: true,
			enter: func(t *testing.T, u *Uplink, s *streams.DurableStream, publish func(int)) func(*testing.T) {
				for i := 0; i < 3; i++ {
					publish(i)
				}
				if err := u.Flush(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				return nil
			}},
		{name: "peer dead, mid-backoff",
			enter: func(t *testing.T, u *Uplink, s *streams.DurableStream, publish func(int)) func(*testing.T) {
				publish(0)
				waitFor(t, "a failed round", func() bool { return u.Stats().Retries >= 1 })
				return nil
			}},
		{name: "mid-linger", spoolOnly: true, peerUp: true,
			cfg: func(c *UplinkConfig) { c.BatchSize, c.Linger = 100, time.Hour },
			enter: func(t *testing.T, u *Uplink, s *streams.DurableStream, publish func(int)) func(*testing.T) {
				publish(0)
				waitFor(t, "a partial round, lingering", func() bool {
					return s.Stats().Msgs == 1 && u.Stats().Sent == 0
				})
				time.Sleep(10 * time.Millisecond) // into the linger's sleep
				if st := u.Stats(); st.Sent != 0 || st.Consumer.Inflight != 0 {
					t.Fatalf("a partial round did not linger: %+v", st)
				}
				return nil
			}},
		{name: "blocked publisher", spoolOnly: true, size: 1, policy: streams.Block,
			enter: func(t *testing.T, u *Uplink, s *streams.DurableStream, publish func(int)) func(*testing.T) {
				publish(0)
				waitFor(t, "message 0 in hand", func() bool { return u.Stats().Retries >= 1 })
				// Message 0, unsent, fills the one-slot window.
				released := make(chan struct{})
				go func() {
					publish(1)
					close(released)
				}()
				select {
				case <-released:
					t.Fatal("publish did not block on a full window")
				case <-time.After(30 * time.Millisecond):
				}
				return func(t *testing.T) {
					select {
					case <-released:
					case <-time.After(5 * time.Second):
						t.Fatal("Close left the publisher blocked")
					}
					// With no consumer left to ack, the append is refused and
					// counted; message 0 stays in the window, unsent.
					if st := s.Stats(); st.Refused != 1 || st.Msgs != 1 {
						t.Fatalf("refused %d, %d unsent; want 1 and 1", st.Refused, st.Msgs)
					}
				}
			}},
	}
	for _, source := range []string{"spool", "consumer"} {
		for _, targets := range []string{"one target", "primary+standby"} {
			for _, sit := range situations {
				if sit.spoolOnly && source != "spool" {
					continue
				}
				t.Run(source+"/"+targets+"/"+sit.name, func(t *testing.T) {
					before := runtime.NumGoroutine()

					// Every target address is either a live capture server or a
					// reserved dead port that gets one after Close, so a dial
					// past Close is seen as an accept either way.
					addrs := []string{deadAddr(t)}
					if targets == "primary+standby" {
						addrs = append(addrs, deadAddr(t))
					}
					servers := make([]*captureServer, len(addrs))
					if sit.peerUp {
						for i, a := range addrs {
							servers[i] = listenCapture(t, a)
						}
					}
					cfg := fastUplink(addrs[0])
					cfg.ProbeEvery = 2 * time.Millisecond
					if len(addrs) == 2 {
						cfg.Standby = addrs[1]
					}
					if sit.cfg != nil {
						sit.cfg(&cfg)
					}
					var (
						u       *Uplink
						s       *streams.DurableStream
						publish func(int)
						err     error
					)
					if source == "spool" {
						node := NewDaemon("node", "nid00040")
						publish = func(i int) { publishSeq(node, i) }
						u, s = spoolUplink(t, node, cfg, cmp.Or(sit.size, 1024), sit.policy)
					} else {
						s = openTestStream(t, sos.NewMemWAL())
						publish = func(i int) { appendSeq(t, s, i) }
						if u, err = NewStreamUplink(s, cfg); err != nil {
							t.Fatal(err)
						}
					}
					after := sit.enter(t, u, s, publish)

					closed := make(chan error, 1)
					go func() { closed <- u.Close() }()
					select {
					case err := <-closed:
						if err != nil {
							t.Fatal(err)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("Close did not return")
					}
					if err := u.Close(); err != nil {
						t.Fatalf("second Close: %v", err)
					}
					if after != nil {
						after(t)
					}

					// Never dials after Close: watch every target for several
					// backoff and probe periods, counting from a snapshot that
					// includes a dial made before Close but still queued.
					accepted := make([]int, len(addrs))
					for i, a := range addrs {
						if servers[i] == nil {
							servers[i] = listenCapture(t, a)
						}
						accepted[i] = servers[i].settle(t)
					}
					time.Sleep(5 * cfg.MaxBackoff)
					for i, srv := range servers {
						if n := srv.accepted(); n != accepted[i] {
							t.Errorf("target %d accepted %d connections after Close", i, n-accepted[i])
						}
						srv.close()
					}

					// No goroutine left behind.
					waitFor(t, "goroutines to exit", func() bool { return runtime.NumGoroutine() <= before })
				})
			}
		}
	}
}
