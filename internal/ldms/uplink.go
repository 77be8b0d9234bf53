package ldms

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/rng"
	"darshanldms/internal/streams"
)

// This file is the opt-in reliable uplink over the TCP transport. The
// default transport stays best-effort ("no reconnect or resend for
// delivery", Section IV-B) so the paper's semantics and numbers are
// untouched; an Uplink is what a deployment enables when a dead
// aggregator or a flapping link must not silently eat the stream.
//
// There is one link state machine — lazy dial, peer-close monitor,
// teardown, backoff with jitter, heartbeat, reconnect tail replay — and
// one delivery loop: take a round from the source, write its frames,
// flush once, settle. What varies is chosen at construction:
//
//	source      NewSpoolUplink: bounded in-memory spool off a daemon's bus
//	            NewStreamUplink: durable streams.Consumer (the stream is
//	            the spool; the ack floor survives a crash); a round is one
//	            fetch, one ack, one cursor checkpoint, and one batch frame
//	            per stored batch it holds (Cursor)
//	target set  Addr alone, or Addr + Standby with a dial-probe failure
//	            detector that re-homes the link

// UplinkConfig parameterizes an Uplink. The zero value of every optional
// field selects a sensible default.
type UplinkConfig struct {
	// Target set. Addr is the upstream daemon (required). Standby, when
	// set, is the upstream to re-home to: a prober dials the active
	// target every ProbeEvery (default 250ms) and FailAfter consecutive
	// misses (default 3) flip the link to the other address, so detection
	// latency is FailAfter x ProbeEvery. Switching is symmetric — if the
	// standby later dies, the link probes its way back.
	Addr       string
	Standby    string
	ProbeEvery time.Duration
	FailAfter  int

	// Reconnect backoff: delays double from InitialBackoff up to
	// MaxBackoff, each scaled by a uniform ±20% so that a daemon restart
	// is not greeted by a synchronized thundering herd.
	InitialBackoff time.Duration // default 50ms
	MaxBackoff     time.Duration // default 5s
	DialTimeout    time.Duration // default 2s

	// Seed seeds the jitter stream; a fixed seed gives a reproducible
	// backoff schedule in tests. Zero derives from the wall clock.
	Seed uint64

	// HeartbeatEvery, when positive, sends liveness probes on the
	// connection (establishing it if needed) so both ends detect a quiet
	// dead link. Probes use HeartbeatTag and are not published remotely.
	HeartbeatEvery time.Duration

	// ReplayLast, when positive, re-sends the last ReplayLast delivered
	// messages after every reconnect: frames in flight when a connection
	// dies are of unknown fate (the kernel may have buffered them, the
	// peer may have processed them), so the link re-covers the tail
	// rather than risk a silent gap. This upgrades a spool's delivery from
	// best-effort to at-least-once; pair the receiving store with a
	// DedupStore to make the path exactly-once.
	ReplayLast int

	// Spool source (NewSpoolUplink). Tag is the bus tag to forward
	// (required). SpoolSize bounds the in-memory spool of undelivered
	// messages (default 1024); Overflow selects the policy when it fills.
	Tag       string
	SpoolSize int
	Overflow  OverflowPolicy

	// Batch shapes a spool round. When enabled (see
	// event.FlushPolicy.Enabled) the spool drains up to MaxRecords /
	// MaxBytes per round, waiting at most MaxAge for a partial round to
	// fill once the first message is in hand, and the round crosses the
	// wire as one batch frame. Rounds form naturally under backpressure —
	// a deep spool yields full rounds, an idle one yields rounds of one
	// after at most MaxAge. The zero value is a one-record round written
	// as a legacy frame: the one-frame-per-message wire behavior.
	Batch event.FlushPolicy

	// Consumer source (NewStreamUplink). Consumer names the durable cursor
	// (default "uplink"), which takes every subject of the stream.
	// BatchSize bounds one round — fetched together, sent as one batch
	// frame, acked together (default 64) — and MaxInflight the consumer's
	// unacked window (default 2 x BatchSize). AckWait is the
	// redelivery deadline — how long a fetched-but-unacked message (e.g.
	// lost when the process died mid-send on a previous incarnation's
	// cursor) waits before the stream offers it again (default 30s). An
	// idle uplink sleeps on the stream and is woken by the next append;
	// there is no poll interval.
	Consumer    string
	BatchSize   int
	MaxInflight int
	AckWait     time.Duration
}

func (cfg *UplinkConfig) setDefaults() {
	if cfg.ProbeEvery <= 0 {
		cfg.ProbeEvery = 250 * time.Millisecond
	}
	if cfg.FailAfter <= 0 {
		cfg.FailAfter = 3
	}
	if cfg.InitialBackoff <= 0 {
		cfg.InitialBackoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = uint64(time.Now().UnixNano())
	}
	if cfg.SpoolSize <= 0 {
		cfg.SpoolSize = 1024
	}
	if cfg.Consumer == "" {
		cfg.Consumer = "uplink"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = RoundSize
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * cfg.BatchSize
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 30 * time.Second
	}
}

// UplinkStats is a snapshot of an uplink's counters.
type UplinkStats struct {
	Sent       uint64 // messages flushed to the socket
	Retries    uint64 // rounds that failed and were retried or handed back
	Dials      uint64 // connection attempts that succeeded
	Reconnects uint64 // successful dials after the first
	Heartbeats uint64 // liveness probes written
	Replayed   uint64 // tail messages re-sent after reconnects (ReplayLast)
	Connected  bool

	Active   string // address currently uplinked to
	Switches uint64 // target changes (primary<->standby, both directions)
	Misses   uint64 // cumulative failed probes

	// Spool source.
	Enqueued   uint64 // messages accepted from the bus
	Dropped    uint64 // spool-overflow drops (also folded into bus stats)
	SpoolDepth int    // messages currently spooled, the round in hand included
	SpoolCap   int    // the spool's bound (SpoolSize)

	// Consumer source.
	Naks     uint64 // deliveries handed back for redelivery after a failed round
	Consumer streams.ConsumerStats
}

// source is where rounds come from and where their fate is reported. The
// delivery loop is its only caller besides Stats and Flush.
//
//	spool   settle(true) releases the round; settle(false) keeps it in
//	        hand and the next take returns it again, so a message leaves
//	        only sent or — on overflow or Close — as a counted drop.
//	Cursor  settle(true) acks the round with one batch ack after the
//	        flush and never before; settle(false) naks the whole round
//	        for immediate redelivery.
type source interface {
	// take blocks until a round is ready; !ok means the source stopped.
	// ends, when not nil, are the exclusive ends of the round's batch
	// frames; nil sends the round as one.
	take() (round []streams.Message, ends []int, ok bool)
	// settle reports the fate of the round take last returned.
	settle(sent bool)
	// stop refuses new input and wakes take; Close calls it once.
	stop()
	// drained reports whether nothing accepted is still unsent.
	drained() bool
	// stats fills the source's share of a snapshot.
	stats(st *UplinkStats)
}

// Uplink forwards a source to a remote daemon over TCP like ForwardTCP,
// but survives the remote daemon dying: undelivered messages wait at the
// source while the link redials with exponential backoff and jitter, and
// are resent once the link returns. Delivery is at-least-once: a message
// in flight when the link breaks may be duplicated after reconnect, never
// silently lost (unless a spool overflows, which is counted); pair the
// receiving store with a DedupStore for exactly-once effect.
type Uplink struct {
	cfg UplinkConfig
	src source
	// batchFrames selects the spool's round writer: one batch frame per
	// round, or one legacy frame per message (the spool's zero-Batch
	// wire behavior). A cursor round is always batch frames.
	batchFrames bool

	mu      sync.Mutex
	sent    uint64
	retries uint64

	connMu     sync.Mutex
	addr       string // active target; the prober flips it
	conn       net.Conn
	bw         *bufio.Writer
	jr         *rng.Stream
	dials      uint64
	heartbeats uint64
	switches   uint64
	misses     uint64
	// Reconnect-replay state (ReplayLast > 0): ring of the most recently
	// sent messages, and whether a live connection has died since the last
	// successful send — the signal that the tail must be re-covered.
	ring          []streams.Message
	replayPending bool
	replayed      uint64

	// Wire accounting for the obs plane: bytes actually written to the
	// socket (headers included) and frames by kind. Atomic so Collect
	// reads them without touching the link locks.
	wireBytes      atomic.Uint64
	framesOut      atomic.Uint64
	batchFramesOut atomic.Uint64

	rehomed   chan struct{} // prober -> delivery loop: retry now, on the new target
	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// StreamUplink names the durable configuration of an Uplink.
type StreamUplink = Uplink

// NewSpoolUplink subscribes to cfg.Tag on from's bus and forwards it
// through a bounded in-memory spool. The first connection is dialed
// lazily.
func NewSpoolUplink(from *Daemon, cfg UplinkConfig) (*Uplink, error) {
	if from == nil {
		return nil, errors.New("ldms: nil daemon")
	}
	if cfg.Tag == "" {
		return nil, errors.New("ldms: uplink needs a tag")
	}
	u, err := newUplink(cfg)
	if err != nil {
		return nil, err
	}
	u.batchFrames = u.cfg.Batch.Enabled()
	u.start(newSpool(from.Bus(), u.cfg))
	return u, nil
}

// NewStreamUplink claims (or resumes) the durable consumer cfg.Consumer
// on s and forwards the stream: a message is acked only after its frame
// reached the socket, so a crash — of the uplink, the process, or the
// whole node — resumes from the durable cursor and re-sends anything
// unacked. A re-home to the standby keeps the same consumer object, so
// the ack floor survives it by construction.
func NewStreamUplink(s *streams.DurableStream, cfg UplinkConfig) (*Uplink, error) {
	if s == nil {
		return nil, errors.New("ldms: uplink needs a stream")
	}
	u, err := newUplink(cfg)
	if err != nil {
		return nil, err
	}
	cons, err := s.Consumer(streams.ConsumerConfig{
		Name:        u.cfg.Consumer,
		MaxInflight: u.cfg.MaxInflight,
		AckWait:     u.cfg.AckWait,
	})
	if err != nil {
		return nil, err
	}
	u.batchFrames = true
	u.start(NewCursor(cons, u.cfg.BatchSize))
	return u, nil
}

func newUplink(cfg UplinkConfig) (*Uplink, error) {
	if cfg.Addr == "" {
		return nil, errors.New("ldms: uplink needs an address")
	}
	if cfg.Standby == cfg.Addr {
		return nil, errors.New("ldms: uplink standby equals its primary address")
	}
	cfg.setDefaults()
	return &Uplink{
		cfg:     cfg,
		addr:    cfg.Addr,
		jr:      rng.New(cfg.Seed),
		rehomed: make(chan struct{}, 1),
		done:    make(chan struct{}),
	}, nil
}

// start launches the delivery loop and the optional heartbeat and probe
// loops. Every goroutine is joined by Close through wg.
func (u *Uplink) start(src source) {
	u.src = src
	u.wg.Add(1)
	go u.run()
	if u.cfg.HeartbeatEvery > 0 {
		u.wg.Add(1)
		go u.heartbeatLoop()
	}
	if u.cfg.Standby != "" {
		u.wg.Add(1)
		go u.probeLoop()
	}
}

// run is the delivery loop: take a round, send it, settle it; a failed
// round backs off before the next attempt.
func (u *Uplink) run() {
	defer u.wg.Done()
	backoff := u.cfg.InitialBackoff
	for {
		round, ends, ok := u.src.take()
		if !ok {
			return
		}
		n := uint64(len(round))
		err := u.send(round, ends, u.batchFrames)
		// Count before settling: Flush returns the moment the source is
		// drained, and a caller reading Stats next must see the round.
		u.mu.Lock()
		if err == nil {
			u.sent += n
		} else {
			u.retries++
		}
		u.mu.Unlock()
		u.src.settle(err == nil)
		// A pause cut short means Close (the next take ends the loop) or a
		// re-home (the new target gets a fresh schedule).
		if err == nil || !u.pause(u.jitter(backoff)) {
			backoff = u.cfg.InitialBackoff
			continue
		}
		backoff *= 2
		if backoff > u.cfg.MaxBackoff {
			backoff = u.cfg.MaxBackoff
		}
	}
}

// jitter scales d by a uniform factor in [0.8, 1.2).
func (u *Uplink) jitter(d time.Duration) time.Duration {
	u.connMu.Lock()
	f := u.jr.Float64()
	u.connMu.Unlock()
	return time.Duration(float64(d) * (1 + 0.2*(2*f-1)))
}

// pause sleeps for d and reports whether it slept it out; Close and a
// re-home both cut it short.
func (u *Uplink) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-u.rehomed:
		return false
	case <-u.done:
		return false
	}
}

// send writes msgs on the current connection — as batch frames ending at
// ends (one frame for nil ends), or one legacy frame each — dialing first
// if necessary, and flushes once. Any error tears the connection down for
// a fresh dial. On a reconnect with ReplayLast set, the recent tail is
// re-sent before msgs.
func (u *Uplink) send(msgs []streams.Message, ends []int, batch bool) error {
	u.connMu.Lock()
	defer u.connMu.Unlock()
	if err := u.ensureConnLocked(); err != nil {
		return err
	}
	if err := u.writeRoundLocked(msgs, ends, batch); err != nil {
		u.teardownLocked()
		return err
	}
	if u.cfg.ReplayLast > 0 {
		for _, m := range msgs {
			if m.Tag == HeartbeatTag {
				continue
			}
			u.ring = append(u.ring, m)
			if len(u.ring) > u.cfg.ReplayLast {
				u.ring = u.ring[1:]
			}
		}
	}
	return nil
}

// writeRoundLocked writes the pending tail replay, then msgs, and flushes
// (connMu held).
func (u *Uplink) writeRoundLocked(msgs []streams.Message, ends []int, batch bool) error {
	if u.replayPending {
		if err := u.writeLocked(u.ring, nil, u.batchFrames); err != nil {
			return err
		}
		u.replayed += uint64(len(u.ring))
		u.replayPending = false
	}
	if err := u.writeLocked(msgs, ends, batch); err != nil {
		return err
	}
	return u.bw.Flush()
}

// writeLocked frames msgs into the connection's buffer (connMu held).
func (u *Uplink) writeLocked(msgs []streams.Message, ends []int, batch bool) error {
	if batch {
		if ends == nil {
			ends = []int{len(msgs)}
		}
		lo := 0
		for _, hi := range ends {
			if err := WriteBatchFrame(u.bw, msgs[lo:hi]); err != nil {
				return err
			}
			u.batchFramesOut.Add(1)
			lo = hi
		}
		return nil
	}
	for _, m := range msgs {
		if err := WriteFrame(u.bw, m); err != nil {
			return err
		}
		u.framesOut.Add(1)
	}
	return nil
}

// ensureConnLocked dials the active target if there is no live connection
// (connMu held).
func (u *Uplink) ensureConnLocked() error {
	if u.conn != nil {
		return nil
	}
	// Refuse to dial once Close has fired: a late redial would spawn a
	// monitor goroutine after wg.Wait already returned, leaking it (and
	// the connection) past Close.
	select {
	case <-u.done:
		return net.ErrClosed
	default:
	}
	conn, err := net.DialTimeout("tcp", u.addr, u.cfg.DialTimeout)
	if err != nil {
		return err
	}
	u.conn = conn
	u.bw = bufio.NewWriter(&countingWriter{w: conn, n: &u.wireBytes})
	u.dials++
	// The server never writes application data back; a read can only
	// return when the peer closes or resets, which is exactly the signal
	// the monitor turns into prompt disconnect detection. Close joins it
	// through wg after teardownLocked unblocks the Read.
	u.wg.Add(1)
	go u.monitor(conn)
	return nil
}

// monitor marks the connection dead as soon as the peer closes it.
func (u *Uplink) monitor(conn net.Conn) {
	defer u.wg.Done()
	var b [1]byte
	conn.Read(b[:]) // blocks until close/reset (server sends nothing)
	u.connMu.Lock()
	if u.conn == conn {
		u.teardownLocked()
	}
	u.connMu.Unlock()
}

// teardownLocked closes and forgets the current connection (connMu held).
func (u *Uplink) teardownLocked() {
	if u.conn != nil {
		u.conn.Close()
		u.conn = nil
		u.bw = nil
		if len(u.ring) > 0 {
			u.replayPending = true
		}
	}
}

// heartbeatLoop periodically probes (and if needed establishes) the link.
func (u *Uplink) heartbeatLoop() {
	defer u.wg.Done()
	tick := time.NewTicker(u.cfg.HeartbeatEvery)
	defer tick.Stop()
	hb := []streams.Message{heartbeat}
	for {
		select {
		case <-u.done:
			return
		case <-tick.C:
			if u.send(hb, nil, false) == nil {
				u.connMu.Lock()
				u.heartbeats++
				u.connMu.Unlock()
			}
		}
	}
}

// probeLoop is the failure detector of a two-target set: a cheap periodic
// dial of the active upstream. The delivery loop's own reconnects handle
// transient blips; the prober only decides when "transient" has become
// "dead", and then re-homes the link: it flips the dial address and tears
// the connection down. The source is untouched, so whatever the failed
// rounds handed back is simply delivered to the new target (duplicates
// for the downstream dedup layer) and a consumer's floor never regresses.
func (u *Uplink) probeLoop() {
	defer u.wg.Done()
	t := time.NewTicker(u.cfg.ProbeEvery)
	defer t.Stop()
	// A probe is a liveness check, not a delivery: cap its dial so the
	// worst-case detection latency stays FailAfter x (ProbeEvery + 1s).
	timeout := min(u.cfg.DialTimeout, time.Second)
	misses := 0
	for {
		select {
		case <-u.done:
			return
		case <-t.C:
		}
		u.connMu.Lock()
		addr := u.addr
		u.connMu.Unlock()
		conn, err := net.DialTimeout("tcp", addr, timeout)
		if err == nil {
			conn.Close()
			misses = 0
			continue
		}
		misses++
		u.connMu.Lock()
		u.misses++
		if misses >= u.cfg.FailAfter {
			misses = 0
			u.addr = u.cfg.Standby
			if addr == u.cfg.Standby {
				u.addr = u.cfg.Addr
			}
			u.switches++
			u.teardownLocked()
			select {
			case u.rehomed <- struct{}{}:
			default:
			}
		}
		u.connMu.Unlock()
	}
}

// Stats returns a snapshot of the uplink's counters.
func (u *Uplink) Stats() UplinkStats {
	u.mu.Lock()
	st := UplinkStats{Sent: u.sent, Retries: u.retries}
	u.mu.Unlock()
	u.connMu.Lock()
	st.Dials = u.dials
	if u.dials > 0 {
		st.Reconnects = u.dials - 1
	}
	st.Heartbeats = u.heartbeats
	st.Replayed = u.replayed
	st.Connected = u.conn != nil
	st.Active = u.addr
	st.Switches = u.switches
	st.Misses = u.misses
	u.connMu.Unlock()
	u.src.stats(&st)
	return st
}

// Flush waits until the source has fully drained — a spool empty with no
// round in hand, a consumer caught up with the stream head with nothing
// inflight — up to timeout.
func (u *Uplink) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !u.src.drained() {
		if time.Now().After(deadline) {
			return fmt.Errorf("ldms: uplink flush timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// Close stops the loops and releases the connection. Messages still
// spooled are counted as dropped (call Flush first for a clean drain); a
// durable cursor survives, and a successor uplink with the same consumer
// name resumes where this one stopped.
func (u *Uplink) Close() error {
	u.closeOnce.Do(func() {
		u.src.stop()
		close(u.done)
		// Tear the connection down BEFORE joining the WaitGroup: the
		// monitor goroutine sits in conn.Read and only returns once the
		// socket closes, so a wait-then-teardown order would deadlock here.
		u.connMu.Lock()
		u.teardownLocked()
		u.connMu.Unlock()
		u.wg.Wait()
	})
	return nil
}
