package ldms

import (
	"bufio"
	"fmt"
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
}

// Name implements StorePlugin.
func (c *CountStore) Name() string { return "store_count" }

// Store implements StorePlugin.
func (c *CountStore) Store(streams.Message) error {
	c.mu.Lock()
	c.count++
	c.mu.Unlock()
	return nil
}

// Count returns messages seen.
func (c *CountStore) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// CSVStore renders connector messages into the Fig 3 CSV layout. Typed
// records feed the CSV writer directly from their fields; only raw JSON
// payloads (legacy peers, PublishJSON) are parsed. Each message's rows are
// built through a row arena and rendered by dsos.AppendCSVRow, the
// renderer dsosql and dsosd's /query use too.
type CSVStore struct {
	mu     sync.Mutex
	w      *bufio.Writer
	header bool
	arena  *dsos.RowArena // builds one message's rows (rewound per store)
	objs   []sos.Object
	row    []byte
}

// NewCSVStore creates a CSV store writing to w.
func NewCSVStore(w io.Writer) *CSVStore {
	return &CSVStore{w: bufio.NewWriter(w), arena: dsos.NewRowArena()}
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
	s.arena.Rewind()
	s.objs, s.row = s.arena.AppendObjects(s.objs[:0], msg), s.row[:0]
	for _, o := range s.objs {
		s.row = append(dsos.AppendCSVRow(s.row, o), '\n')
	}
	_, err = s.w.Write(s.row)
	return err
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
// of one. A run stored as one batch body is read in one walk that decodes
// each typed record straight into row words, never into a message.
type DSOSStore struct {
	client *dsos.Client
	mu     sync.Mutex
	objs   []sos.Object   // reused row batch of one round
	arena  *dsos.RowArena // builds the rows by copying fields (guarded by mu)
	// A body's walk: its table and base, strings, and typed row reader.
	k    streams.BatchContext
	in   *event.Interner
	rows event.RowDecoder
	// Obs plane (set by Instrument; nil-safe counters otherwise).
	msgs    *obs.Counter
	objects *obs.Counter
	errs    *obs.Counter
}

// NewDSOSStore creates the store plugin over a connected client.
func NewDSOSStore(client *dsos.Client) *DSOSStore {
	return &DSOSStore{client: client, arena: dsos.NewRowArena(), in: event.NewInterner()}
}

// Name implements StorePlugin.
func (s *DSOSStore) Name() string { return "store_dsos" }

// Store implements StorePlugin: the untagged round of one message, whose
// decode error, if any, is the error.
func (s *DSOSStore) Store(m streams.Message) error {
	var decodeErr error
	one := [1]streams.Message{m}
	if err := s.store(one[:], Run{}, 0, func(err error) { decodeErr = err }); err != nil {
		return err
	}
	return decodeErr
}

// StoreRound implements RoundStore: every record's rows, built through
// the store's arena, go down as one InsertTagged tagged token. A record
// that does not decode is dead-lettered: counted as a store error,
// reported to dead (under the store's lock, so dead must not call back
// into it) and left out of the insert — it never will decode, and
// redelivering it would only spin.
//
// The rows live in the arena's memory for one run only: InsertTagged
// copies every row into the shards' pages and logs before it returns, so
// the next run rewinds the arena and builds its rows in the same words.
func (s *DSOSStore) StoreRound(run Run, token uint64, dead func(error)) error {
	return s.store(run.Msgs, Run{Body: run.Body, Keep: run.Keep}, token, dead)
}

// store is StoreRound with the run's messages in ms, apart from the run,
// whose body escapes: Store's round of one then stays on the stack.
func (s *DSOSStore) store(ms []streams.Message, run Run, token uint64, dead func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.Rewind()
	s.objs = s.objs[:0]
	decoded := 0
	if run.Body != nil {
		decoded = s.bodyLocked(&run, dead)
	}
	for _, m := range ms {
		if run.Body == nil && run.keeps(m) {
			decoded += s.messageLocked(m, dead)
		}
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

// messageLocked appends m's rows, copied from its fields, and reports 1;
// or dead-letters m and reports 0.
func (s *DSOSStore) messageLocked(m streams.Message, dead func(error)) int {
	msg, err := event.Fields(m)
	if err != nil {
		s.errs.Inc()
		dead(err)
		return 0
	}
	s.objs = s.arena.AppendObjects(s.objs, msg)
	return 1
}

// bodyLocked appends the rows of a run's body in one walk and reports how
// many records it stored. run.Keep sees each envelope first; a typed
// record kept is decoded straight into row words, one not kept is only
// walked, and an opaque record takes the message path. The stream walked
// the body cleanly when it took it, so an error here is a store error.
func (s *DSOSStore) bodyLocked(run *Run, dead func(error)) int {
	_ = s.k.Reset(streams.BodyV2, s.in)
	w := streams.NewRecordWalker(run.Body, &s.k)
	n, err := w.Count()
	decoded := 0
	for ; err == nil && n > 0; n-- {
		var e streams.Envelope
		if e, err = w.Next(); err != nil {
			break
		}
		m := streams.Message{Tag: e.Tag, Type: e.Type, Producer: e.Producer, Seq: e.Seq}
		if len(e.Payload) > 0 {
			m.Data = e.Payload
		}
		keep, r := run.keeps(m), &s.rows
		if e.Kind == streams.RecOpaque {
			if keep {
				decoded += s.messageLocked(m, dead)
			}
			continue
		}
		for r.Start(w.Rest(), &s.k); r.Next(); {
			if keep {
				tab, ids := r.Strings()
				s.objs = s.arena.AppendRow(s.objs, &r.Head, &r.Seg, tab, ids)
			}
		}
		if err = r.Err(); err == nil && keep {
			decoded++
		}
		w.Skip(r.Len())
	}
	if err != nil {
		s.errs.Inc()
		dead(fmt.Errorf("ldms: stored batch body: %w", err))
	}
	return decoded
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
