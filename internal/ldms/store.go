package ldms

import (
	"bufio"
	"io"
	"sync"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// StorePlugin consumes stream messages at the final aggregation level.
type StorePlugin interface {
	Name() string
	Store(m streams.Message) error
}

// AttachStore subscribes a store plugin to a tag on the daemon's bus.
// Store errors are counted, not propagated — LDMS storage is best-effort.
func (d *Daemon) AttachStore(tag string, s StorePlugin) *StoreHandle {
	h := &StoreHandle{plugin: s}
	h.sub = d.bus.Subscribe(tag, func(m streams.Message) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.received++
		if err := s.Store(m); err != nil {
			h.errors++
			h.lastErr = err
		}
	})
	return h
}

// StoreHandle tracks one attached store.
type StoreHandle struct {
	plugin   StorePlugin
	sub      *streams.Subscription
	mu       sync.Mutex
	received uint64
	errors   uint64
	lastErr  error
}

// Received returns the number of messages delivered to the store.
func (h *StoreHandle) Received() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.received
}

// Errors returns the number of failed stores and the last error.
func (h *StoreHandle) Errors() (uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.errors, h.lastErr
}

// Close detaches the store from the bus.
func (h *StoreHandle) Close() { h.sub.Close() }

// CountStore counts messages and discards payloads (used by the overhead
// campaigns, which need message counts and rates but not retained data).
type CountStore struct {
	mu    sync.Mutex
	count uint64
	bytes uint64
}

// Name implements StorePlugin.
func (c *CountStore) Name() string { return "store_count" }

// Store implements StorePlugin. Only materialized payload bytes are
// counted — a typed record that nothing has JSON-encoded contributes 0,
// deliberately: forcing the encode just to count it would undo the lazy
// plane for every overhead campaign that uses this store.
func (c *CountStore) Store(m streams.Message) error {
	c.mu.Lock()
	c.count++
	if m.Data != nil {
		c.bytes += uint64(len(m.Data))
	} else if r, ok := m.Record.(*event.Record); ok && r.Encoded() {
		c.bytes += uint64(len(r.Payload()))
	}
	c.mu.Unlock()
	return nil
}

// Count returns messages seen.
func (c *CountStore) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// Bytes returns payload bytes seen.
func (c *CountStore) Bytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// CSVStore renders connector messages into the Fig 3 CSV layout. Typed
// records feed the CSV writer directly from their fields; only raw JSON
// payloads (legacy peers, PublishJSON) are parsed.
type CSVStore struct {
	mu     sync.Mutex
	w      *bufio.Writer
	header bool
}

// NewCSVStore creates a CSV store writing to w.
func NewCSVStore(w io.Writer) *CSVStore {
	return &CSVStore{w: bufio.NewWriter(w)}
}

// Name implements StorePlugin.
func (s *CSVStore) Name() string { return "store_csv" }

// Store implements StorePlugin.
func (s *CSVStore) Store(m streams.Message) error {
	msg, err := event.Fields(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.header {
		if _, err := s.w.WriteString(jsonmsg.CSVHeader + "\n"); err != nil {
			return err
		}
		s.header = true
	}
	for _, row := range msg.CSVRows() {
		if _, err := s.w.WriteString(row + "\n"); err != nil {
			return err
		}
	}
	return nil
}

// Flush flushes buffered rows.
func (s *CSVStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// DSOSStore inserts connector messages into a DSOS cluster (the paper's
// storage path). Typed records are ingested straight from their fields —
// the old parse-at-store hop (encode at the connector, re-parse the same
// bytes here) is gone; raw JSON payloads still parse as before. Each
// message's rows go down as one batch insert.
type DSOSStore struct {
	client *dsos.Client
	mu     sync.Mutex
	objs   []sos.Object   // reused per-message object batch
	arena  *dsos.RowArena // row backings + cached boxes (guarded by mu)
	// Obs plane (set by Instrument; nil-safe counters otherwise).
	clock   obs.Clock
	msgs    *obs.Counter
	objects *obs.Counter
	errs    *obs.Counter
}

// hopStore names the DSOS ingest stage in record traces.
const hopStore = "store"

// NewDSOSStore creates the store plugin over a connected client.
func NewDSOSStore(client *dsos.Client) *DSOSStore {
	return &DSOSStore{client: client, arena: dsos.NewRowArena()}
}

// Name implements StorePlugin.
func (s *DSOSStore) Name() string { return "store_dsos" }

// Store implements StorePlugin.
func (s *DSOSStore) Store(m streams.Message) error {
	msg, err := event.Fields(m)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clock != nil {
		if st, ok := m.Record.(streams.Stamper); ok {
			st.Stamp(hopStore, s.clock())
		}
	}
	// Rows come from the store's arena: shared []any backings and cached
	// boxes, so steady-state ingest of repeated values stops allocating.
	// The message may be slab-backed — that is fine, the arena copies
	// every value it reads and the insert below is synchronous.
	s.objs = s.arena.AppendObjects(s.objs[:0], msg)
	err = s.client.InsertBatch(dsos.DarshanSchemaName, s.objs)
	s.msgs.Inc()
	s.objects.Add(uint64(len(s.objs)))
	if err != nil {
		s.errs.Inc()
	}
	return err
}

// RetryConfig parameterizes a RetryStore.
type RetryConfig struct {
	// Attempts is the total number of tries per message (default 3).
	Attempts int
	// Backoff sleeps Backoff<<attempt between tries (0 = immediate retry,
	// the right choice inside a simulation where wall-clock sleeps would
	// stall the virtual clock).
	Backoff time.Duration
	// Timeout bounds the total wall-clock spent on one message including
	// backoff sleeps (0 = no bound).
	Timeout time.Duration
}

// RetryStore wraps a StorePlugin with bounded retry-with-timeout, the
// opt-in hardening for the DSOS ingest path: a transiently failing dsosd
// (or a sharded client that rotates to a healthy daemon on the next try)
// no longer costs the message.
type RetryStore struct {
	inner StorePlugin
	cfg   RetryConfig

	mu       sync.Mutex
	retries  uint64
	failures uint64
	lastErr  error
}

// NewRetryStore wraps inner with the retry policy.
func NewRetryStore(inner StorePlugin, cfg RetryConfig) *RetryStore {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 3
	}
	return &RetryStore{inner: inner, cfg: cfg}
}

// Name implements StorePlugin.
func (s *RetryStore) Name() string { return "retry(" + s.inner.Name() + ")" }

// Store implements StorePlugin: it retries inner.Store up to Attempts
// times within Timeout.
func (s *RetryStore) Store(m streams.Message) error {
	var deadline time.Time
	if s.cfg.Timeout > 0 {
		deadline = time.Now().Add(s.cfg.Timeout)
	}
	var err error
	for attempt := 0; attempt < s.cfg.Attempts; attempt++ {
		if err = s.inner.Store(m); err == nil {
			return nil
		}
		if attempt+1 == s.cfg.Attempts {
			break
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			break
		}
		s.mu.Lock()
		s.retries++
		s.mu.Unlock()
		if s.cfg.Backoff > 0 {
			time.Sleep(s.cfg.Backoff << attempt)
		}
	}
	s.mu.Lock()
	s.failures++
	s.lastErr = err
	s.mu.Unlock()
	return err
}

// Stats returns retry/failure counts and the last error.
func (s *RetryStore) Stats() (retries, failures uint64, lastErr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retries, s.failures, s.lastErr
}
