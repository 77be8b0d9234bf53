package ldms

import (
	"errors"
	"io"
	"sync/atomic"

	"darshanldms/internal/obs"
)

// This file wires the transport and store layers into the obs plane.
// The pattern everywhere is the same: hot paths keep (or gain only
// atomic) counters, and a scrape-time Collect callback exports them, so
// an uninstrumented pipeline's behavior — and a seeded run's output —
// is unchanged.

// countingWriter counts bytes flowing to an underlying writer; the
// uplink installs it under its bufio layer so the count is real wire
// bytes (headers included), not payload estimates.
type countingWriter struct {
	w io.Writer
	n *atomic.Uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(uint64(n))
	return n, err
}

// countingReader counts bytes read from an underlying reader.
type countingReader struct {
	r io.Reader
	n *atomic.Uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(uint64(n))
	return n, err
}

// Collect exports the uplink's counters under labels {fwd="<name>"}:
// connection activity (dials, reconnects, connected, wire bytes, batch
// frames) and delivery (sent, retries, naks, heartbeats). The series are
// the same for every stream and target set; the backlog is the stream's
// own (DurableStream.Collect), and everything is read from the snapshot
// the uplink already keeps, at scrape time only.
func (u *Uplink) Collect(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	labels := `{fwd="` + name + `"}`
	reg.RegisterCollector(func(emit func(string, float64)) {
		st := u.Stats()
		emit("dlc_fwd_sent_total"+labels, float64(st.Sent))
		emit("dlc_fwd_retries_total"+labels, float64(st.Retries))
		emit("dlc_fwd_naks_total"+labels, float64(st.Naks))
		emit("dlc_fwd_dials_total"+labels, float64(st.Dials))
		emit("dlc_fwd_reconnects_total"+labels, float64(st.Reconnects))
		emit("dlc_fwd_heartbeats_total"+labels, float64(st.Heartbeats))
		connected := 0.0
		if st.Connected {
			connected = 1
		}
		emit("dlc_fwd_connected"+labels, connected)
		emit("dlc_fwd_wire_bytes_total"+labels, float64(u.wireBytes.Load()))
		emit("dlc_fwd_batch_frames_total"+labels, float64(u.batchFramesOut.Load()))
	})
}

// Health returns a /healthz probe that fails while the uplink cannot keep
// up: a memory-only window that has refused appends or, when window (its
// Retention.MaxMsgs) is positive, holds that many unsent; or a consumer
// that lagged past the stream's retention — a drop-oldest overflow among
// them (messages were skipped).
func (u *Uplink) Health(window int) func() error {
	return func() error {
		ss := u.stream.Stats()
		switch {
		case ss.Refused > 0:
			return errors.New("uplink window overflow: " + utoa(ss.Refused) + " messages refused")
		case window > 0 && ss.Msgs >= window:
			return errors.New("uplink window full: " + utoa(uint64(ss.Msgs)) + " messages unsent")
		}
		st := u.Stats()
		if n := st.Consumer.Missed; n > 0 {
			return errors.New("uplink lagged past retention: " + utoa(n) + " messages skipped")
		}
		return nil
	}
}

// Collect exports the server's receive-side counters under labels
// {srv="<name>"}: messages, heartbeats, frames and raw wire bytes.
func (s *TCPServer) Collect(reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	labels := `{srv="` + name + `"}`
	reg.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_tcp_received_total"+labels, float64(s.Received()))
		emit("dlc_tcp_heartbeats_total"+labels, float64(s.Heartbeats()))
		emit("dlc_tcp_frames_total"+labels, float64(s.frames.Load()))
		emit("dlc_tcp_batch_frames_total"+labels, float64(s.batchFrames.Load()))
		emit("dlc_tcp_wire_bytes_total"+labels, float64(s.wireBytes.Load()))
		s.mu.Lock()
		conns := len(s.conns)
		s.mu.Unlock()
		emit("dlc_tcp_connections"+labels, float64(conns))
	})
}

// CollectPools exports the package's buffer recycling pool, the batch
// frame scratch pool, as gets/puts plus the derived outstanding count
// (gets - puts = buffers currently out).
func CollectPools(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		fg, fp := FramePoolCounters()
		emit(`dlc_pool_gets_total{pool="frame"}`, float64(fg))
		emit(`dlc_pool_puts_total{pool="frame"}`, float64(fp))
		emit(`dlc_pool_outstanding{pool="frame"}`, float64(fg-fp))
	})
}

// Instrument attaches the dedup stage to the obs plane: absorption
// counters at scrape time.
func (s *DedupStore) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_dedup_duplicates_total", float64(s.Duplicates()))
		emit("dlc_dedup_stored_total", float64(s.Stored()))
		emit("dlc_dedup_unstamped_total", float64(s.Unstamped()))
	})
}

// Collect exports the retry stage's counters.
func (s *RetryStore) Collect(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCollector(func(emit func(string, float64)) {
		retries, failures, _ := s.Stats()
		emit("dlc_retry_retries_total", float64(retries))
		emit("dlc_retry_failures_total", float64(failures))
	})
}

// Instrument attaches the DSOS store plugin to the obs plane: message,
// object and error ingest counters.
func (s *DSOSStore) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	s.msgs = reg.Counter("dlc_store_dsos_messages_total")
	s.objects = reg.Counter("dlc_store_dsos_objects_total")
	s.errs = reg.Counter("dlc_store_dsos_errors_total")
	s.mu.Unlock()
}

// utoa formats a uint64 without fmt (hotalloc bans fmt.Sprintf here).
func utoa(n uint64) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
