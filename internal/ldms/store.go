package ldms

import (
	"bufio"
	"io"
	"sync"

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
// bytes here) is gone; raw JSON payloads still parse as before. A round of
// messages goes down as one batch insert (StoreRound); Store is the round
// of one.
type DSOSStore struct {
	client *dsos.Client
	mu     sync.Mutex
	objs   []sos.Object   // reused row batch of one round
	arena  *dsos.RowArena // builds the rows by copying fields (guarded by mu)
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

// Store implements StorePlugin: the untagged round of one message, whose
// decode error, if any, is the error.
func (s *DSOSStore) Store(m streams.Message) error {
	var decodeErr error
	one := [1]streams.Message{m}
	if err := s.StoreRound(one[:], 0, func(err error) { decodeErr = err }); err != nil {
		return err
	}
	return decodeErr
}

// StoreRound implements RoundStore: every message's rows, built through
// the store's arena, go down as one InsertTagged tagged token. A message
// that event.Fields cannot decode is dead-lettered: counted as a store
// error, reported to dead (under the store's lock, so dead must not call
// back into it) and left out of the insert — it never will decode, and
// redelivering it would only spin.
func (s *DSOSStore) StoreRound(ms []streams.Message, token uint64, dead func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Rows come from the store's arena: typed words copied from each
	// message's fields, so steady-state ingest allocates only chunks of
	// words. A message may be slab-backed — that is fine, the arena copies
	// every value it reads and keeps no reference to the message.
	s.objs = s.objs[:0]
	decoded := 0
	for _, m := range ms {
		msg, err := event.Fields(m)
		if err != nil {
			s.errs.Inc()
			dead(err)
			continue
		}
		if s.clock != nil {
			if st, ok := m.Record.(streams.Stamper); ok {
				st.Stamp(hopStore, s.clock())
			}
		}
		s.objs = s.arena.AppendObjects(s.objs, msg)
		decoded++
	}
	if decoded == 0 {
		return nil
	}
	s.msgs.Add(uint64(decoded))
	s.objects.Add(uint64(len(s.objs)))
	err := s.client.InsertTagged(dsos.DarshanSchemaName, s.objs, token)
	if err != nil {
		s.errs.Inc()
	}
	return err
}

// RetryConfig parameterizes a RetryStore.
type RetryConfig struct {
	// Attempts is the total number of tries per message (default 3).
	// Retries are immediate: the store runs inside the simulation, where
	// a wall-clock sleep would stall the virtual clock.
	Attempts int
}

// RetryStore wraps a StorePlugin with bounded retry, the opt-in hardening
// for the DSOS ingest path: a transiently failing dsosd (or a sharded
// client that rotates to a healthy daemon on the next try) no longer
// costs the message.
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

// Store implements StorePlugin: it tries inner.Store up to Attempts times.
func (s *RetryStore) Store(m streams.Message) error {
	var err error
	for attempt := 0; attempt < s.cfg.Attempts; attempt++ {
		if err = s.inner.Store(m); err == nil {
			return nil
		}
		if attempt+1 < s.cfg.Attempts {
			s.mu.Lock()
			s.retries++
			s.mu.Unlock()
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
