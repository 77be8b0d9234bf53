package ldms

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

// The TCP transport lets real (non-simulated) daemons form the same
// multi-hop topology: connector -> node ldmsd -> aggregator -> store,
// which cmd/ldmsd exposes. Daemons write batch frames (tcp_batch.go). The
// legacy frame, a 4-byte big-endian length followed by a JSON envelope of
// one message, is still read: older peers and raw publishers send it.

// maxFrame bounds a frame to keep a malformed peer from exhausting memory.
const maxFrame = 16 << 20

// MaxFrame is the largest frame payload the transport accepts, exported so
// tests and callers can size messages against the boundary.
const MaxFrame = maxFrame

// HeartbeatTag marks liveness-probe frames exchanged between daemons. The
// server counts them and refreshes its activity clock but never publishes
// them onto the bus; the "!" prefix keeps the tag out of the connector's
// namespace.
const HeartbeatTag = "!ldms.heartbeat"

// heartbeat is the liveness-probe message PingTCP and an Uplink's
// heartbeat loop write.
var heartbeat = streams.Message{Tag: HeartbeatTag, Type: streams.TypeString, Data: []byte("ping")}

type wireMsg struct {
	Tag  string `json:"tag"`
	Type int    `json:"type"`
	Data []byte `json:"data"` // encoding/json base64s []byte
	// Delivery identity (streams.Message.Producer/Seq); omitted on the
	// wire when the message is unstamped, so pre-existing peers and
	// captures see identical frames.
	Producer string `json:"producer,omitempty"`
	Seq      uint64 `json:"seq,omitempty"`
}

// WriteFrame writes one stream message to w as a legacy frame. The wire
// needs bytes, so a typed record is encoded here (once, cached) if nothing
// encoded it yet. Daemons only read legacy frames (older peers send them);
// WriteFrame stays exported for the benchmark's frame timings.
func WriteFrame(w io.Writer, m streams.Message) error {
	payload, err := json.Marshal(wireMsg{Tag: m.Tag, Type: int(m.Type), Data: m.Payload(), Producer: m.Producer, Seq: m.Seq})
	if err != nil {
		return err
	}
	if len(payload) == 0 {
		return errors.New("ldms: zero-length frame")
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("ldms: frame too large (%d bytes)", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// ReadFrame reads one stream message from r.
func ReadFrame(r io.Reader) (streams.Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return streams.Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return streams.Message{}, errors.New("ldms: zero-length frame")
	}
	if n > maxFrame {
		return streams.Message{}, fmt.Errorf("ldms: oversized frame (%d bytes)", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return streams.Message{}, err
	}
	var wm wireMsg
	if err := json.Unmarshal(payload, &wm); err != nil {
		return streams.Message{}, err
	}
	return streams.Message{Tag: wm.Tag, Type: streams.MsgType(wm.Type), Data: wm.Data, Producer: wm.Producer, Seq: wm.Seq}, nil
}

// TCPServer accepts transport connections and publishes received messages
// onto a daemon's bus.
type TCPServer struct {
	d          *Daemon
	ln         net.Listener
	mu         sync.Mutex
	conns      map[net.Conn]struct{}
	closed     bool
	received   uint64
	heartbeats uint64
	literal    uint64 // payload bytes decoded frames materialized (LiteralBytes)
	wg         sync.WaitGroup
	// Obs plane: raw wire bytes and frames by kind (atomic: updated on
	// every connection's read loop), plus the trace hop set by Instrument.
	wireBytes   atomic.Uint64
	frames      atomic.Uint64
	batchFrames atomic.Uint64
	hop         string
	clock       func() time.Duration
}

// ListenTCP starts a transport listener for the daemon on addr
// (e.g. "127.0.0.1:0").
func ListenTCP(d *Daemon, addr string) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &TCPServer{d: d, ln: ln, conns: map[net.Conn]struct{}{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Received returns the number of messages received over TCP.
func (s *TCPServer) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// LiteralBytes returns the payload bytes received messages carried as
// literal bytes: a legacy frame's data and a decoded opaque record's
// payload. A typed record contributes none, and neither does a batch
// appended as it stands (PublishBody), which materializes no message.
func (s *TCPServer) LiteralBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.literal
}

// Heartbeats returns the number of liveness probes received.
func (s *TCPServer) Heartbeats() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heartbeats
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(conn)
	}
}

func (s *TCPServer) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(&countingReader{r: conn, n: &s.wireBytes})
	dec := NewBatchDecoder()
	for {
		// One connection may interleave legacy single-message frames and
		// batch frames, told apart by the leading byte (a legacy frame's
		// first length byte can never be the batch magic — maxFrame keeps
		// it below 0x01000000). A batch payload that nothing on the bus
		// needs decoded is appended as it stands (PublishBody). Anything
		// else decodes into a pooled slab released after the publish
		// fan-out below: PublishBatch is synchronous, and whatever keeps a
		// message past its return (a bound stream, memory-only or not,
		// stores the encoded record) keeps nothing slab-owned.
		lead, err := br.Peek(1)
		if err != nil {
			return // EOF: best-effort, drop the link
		}
		isBatch := lead[0] == batchMagic
		var msgs []streams.Message
		var slab *event.Slab
		if !isBatch {
			msgs, slab, err = dec.ReadAnyFrameSlab(br)
		} else if version, payload, rerr := dec.readBatchPayload(br); rerr != nil {
			return
		} else if n, ok := s.d.Bus().PublishBody(version, payload, dec.in, HeartbeatTag); ok {
			s.batchFrames.Add(1)
			s.mu.Lock()
			s.received += uint64(n)
			s.mu.Unlock()
			continue
		} else {
			msgs, slab, err = dec.decodeSlab(version, payload)
		}
		if err != nil {
			return // EOF or protocol error: best-effort, drop the link
		}
		if isBatch {
			s.batchFrames.Add(1)
		} else {
			s.frames.Add(1)
		}
		// The frame goes to the bus as one batch, heartbeats filtered out
		// in place; the server's own books are kept once per frame.
		batch, literal := msgs[:0], 0
		for _, m := range msgs {
			if m.Tag != HeartbeatTag {
				batch = append(batch, m)
				literal += len(m.Data)
			}
		}
		s.mu.Lock()
		hop, clock := s.hop, s.clock
		s.heartbeats += uint64(len(msgs) - len(batch))
		s.received += uint64(len(batch))
		s.literal += uint64(literal)
		s.mu.Unlock()
		var now time.Duration
		if hop != "" {
			now = clock()
		}
		for i := range batch {
			m := &batch[i]
			if m.Record == nil && m.Type == streams.TypeJSON && m.Data != nil {
				// Wrap raw JSON in a bytes-first record so every store
				// fanned out below shares one cached parse instead of
				// re-parsing per consumer.
				m.Record = event.FromPayload(m.Data)
			}
			if hop != "" {
				if st, ok := m.Record.(streams.Stamper); ok {
					st.Stamp(hop, now)
				}
			}
		}
		s.d.Bus().PublishBatch(batch)
		slab.Release()
	}
}

// Close stops the listener and all connections.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// TCPClient publishes stream messages over one connection, with no redial
// or resend. No daemon sends through it (every forward is an Uplink); it,
// DialTCP, PublishBatch and WriteFrame stay exported for the benchmark.
type TCPClient struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
}

// DialTCP connects a TCPClient to a TCPServer (benchmark only).
func DialTCP(addr string) (*TCPClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPClient{conn: conn, bw: bufio.NewWriter(conn)}, nil
}

// Publish sends one message as a legacy frame.
func (c *TCPClient) Publish(m streams.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return errors.New("ldms: client closed")
	}
	if err := WriteFrame(c.bw, m); err != nil {
		return err
	}
	return c.bw.Flush()
}

// Close closes the connection.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// PingTCP dials addr, writes one heartbeat as a batch frame of one and
// closes — a one-shot liveness probe for a remote daemon.
func PingTCP(addr string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(timeout))
	return WriteBatchFrame(conn, []streams.Message{heartbeat})
}
