package ldms

import (
	"bufio"
	"errors"
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

// AttachStore subscribes a store plugin to a tag on the daemon's bus, as
// the simulation stores. Store errors are counted, not propagated — LDMS
// storage is best-effort.
func (d *Daemon) AttachStore(tag string, s StorePlugin) *StoreHandle {
	h := &StoreHandle{}
	h.detach = d.bus.Subscribe(tag, func(m streams.Message) {
		h.mu.Lock()
		defer h.mu.Unlock()
		h.received++
		if err := s.Store(m); err != nil {
			h.fail(err)
		}
	}).Close
	return h
}

// StoreReceived makes s the daemon's receive store: each frame a
// TCPServer of d receives is stored into s as one run tagged 0 from the
// connection's goroutine, before the bus sees it — a version-2 batch as
// the body it arrived as, anything else decoded — leaving out heartbeats
// and tags other than tag. The handle counts the records kept, and each
// dead letter and failed run as an error.
func (d *Daemon) StoreReceived(tag string, s RoundStore) *StoreHandle {
	h := &StoreHandle{rounds: s, tag: tag}
	h.keep, h.dead = h.keepLocked, h.fail
	h.detach = func() { d.recv.CompareAndSwap(h, nil) }
	d.recv.Store(h)
	return h
}

// StoreHandle tracks one attached store: a bus handler (AttachStore) or
// a receive store (StoreReceived), with its Keep and dead-letter
// callbacks bound once and the tally of the frame it is storing.
type StoreHandle struct {
	detach func()
	rounds RoundStore
	tag    string
	keep   func(streams.Message) bool
	dead   func(error)
	frame  tally

	mu       sync.Mutex
	received uint64
	errors   uint64
	lastErr  error
}

// tally is what one received frame held: messages besides heartbeats,
// heartbeats, the former's literal bytes, and the messages kept.
type tally struct{ msgs, heartbeats, literal, kept int }

// add tallies m and reports whether it is a heartbeat.
func (t *tally) add(m streams.Message) bool {
	if m.Tag == HeartbeatTag {
		t.heartbeats++
		return true
	}
	t.msgs++
	t.literal += len(m.Data)
	return false
}

// storeFrame stores one received frame as one run and returns its tally;
// false means its body does not walk, and nothing of it is stored.
func (h *StoreHandle) storeFrame(run Run) (tally, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.frame, run.Keep = tally{}, h.keep
	err := h.rounds.StoreRound(run, 0, h.dead)
	if errors.Is(err, errBadBody) {
		return tally{}, false
	}
	h.received += uint64(h.frame.kept)
	if err != nil {
		h.fail(err)
	}
	return h.frame, true
}

// keepLocked is a receive store's Keep (h.mu held): it tallies m and
// keeps it when it is of the stored tag.
func (h *StoreHandle) keepLocked(m streams.Message) bool {
	if h.frame.add(m) || m.Tag != h.tag {
		return false
	}
	h.frame.kept++
	return true
}

// fail counts a failed store or a dead letter (h.mu held).
func (h *StoreHandle) fail(err error) {
	h.errors++
	h.lastErr = err
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

// Close detaches the store.
func (h *StoreHandle) Close() { h.detach() }

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

// errBadBody marks a run body that does not walk to its end: a malformed
// frame. A stream never holds one: it walks each body with this decoder.
var errBadBody = errors.New("ldms: batch body")

// rowStore is what CSVStore and DSOSStore share: a run's Table I rows
// are built in an arena by one walk, under the store's lock, and handed
// to the store's sink, where the two differ. A body is read in one walk
// that decodes each typed record straight into row words, never into a
// message; a message's rows are copied from its fields.
type rowStore struct {
	mu    sync.Mutex
	objs  []sos.Object   // the run's rows, valid until the next run
	arena *dsos.RowArena // the rows' memory, rewound by each run
	// A body's table and base, strings, and typed row reader.
	k    streams.BatchContext
	in   *event.Interner
	rows event.RowDecoder
	errs *obs.Counter // dead letters and failed sinks (nil-safe)
	// sink takes objs, the rows of decoded records, tagged token (mu held).
	sink func(decoded int, token uint64) error
}

func (s *rowStore) init(sink func(int, uint64) error) {
	s.arena, s.in, s.sink = dsos.NewRowArena(), event.NewInterner(), sink
}

// Store implements StorePlugin: the untagged round of one message, whose
// decode error, if any, is the error.
func (s *rowStore) Store(m streams.Message) error {
	var decodeErr error
	one := [1]streams.Message{m}
	if err := s.store(one[:], Run{}, 0, func(err error) { decodeErr = err }); err != nil {
		return err
	}
	return decodeErr
}

// StoreRound implements RoundStore: the rows of every record the run's
// Keep keeps go to the sink as one batch. A record that does not decode
// is dead-lettered: counted, reported to dead (under the store's lock, so
// dead must not call back into it) and left out — it never will decode,
// and a retry would only spin. A body that does not walk to its end
// stores nothing and is an errBadBody.
func (s *rowStore) StoreRound(run Run, token uint64, dead func(error)) error {
	return s.store(run.Msgs, Run{Body: run.Body, Keep: run.Keep}, token, dead)
}

// store is StoreRound with the run's messages in ms, apart from the run,
// whose body escapes: Store's round of one then stays on the stack.
func (s *rowStore) store(ms []streams.Message, run Run, token uint64, dead func(error)) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arena.Rewind()
	s.objs = s.objs[:0]
	decoded, err := 0, error(nil)
	if run.Body != nil {
		decoded, err = s.bodyLocked(&run, dead)
	}
	for _, m := range ms {
		if run.Body == nil && run.keeps(m) {
			decoded += s.messageLocked(m, dead)
		}
	}
	if err != nil || decoded == 0 {
		return err
	}
	return s.sink(decoded, token)
}

// messageLocked appends m's rows, copied from its fields, and reports 1;
// or dead-letters m and reports 0.
func (s *rowStore) messageLocked(m streams.Message, dead func(error)) int {
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
// many records it built rows for. run.Keep sees each envelope first; a
// typed record kept is decoded straight into row words, one not kept is
// only walked, and an opaque record takes the message path.
func (s *rowStore) bodyLocked(run *Run, dead func(error)) (int, error) {
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
	if err == nil {
		err = w.Done()
	}
	if err != nil {
		s.objs = s.objs[:0]
		return 0, fmt.Errorf("%w: %w", errBadBody, err)
	}
	return decoded, nil
}

// CSVStore renders connector messages into the Fig 3 CSV layout, each
// run's rows appended as one write by dsos.AppendCSVRow, the renderer
// dsosql and dsosd's /query use too.
type CSVStore struct {
	rowStore
	w      *bufio.Writer
	header bool
	row    []byte
}

// NewCSVStore creates a CSV store writing to w.
func NewCSVStore(w io.Writer) *CSVStore {
	s := &CSVStore{w: bufio.NewWriter(w)}
	s.init(s.write)
	return s
}

// Name implements StorePlugin.
func (s *CSVStore) Name() string { return "store_csv" }

// write is the CSV store's sink. A CSV file has no log to cut, so the
// token is not kept.
func (s *CSVStore) write(int, uint64) error {
	if !s.header {
		if _, err := s.w.WriteString(jsonmsg.CSVHeader + "\n"); err != nil {
			return err
		}
		s.header = true
	}
	s.row = s.row[:0]
	for _, o := range s.objs {
		s.row = append(dsos.AppendCSVRow(s.row, o), '\n')
	}
	_, err := s.w.Write(s.row)
	return err
}

// Flush flushes buffered rows.
func (s *CSVStore) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Flush()
}

// DSOSStore inserts connector messages into a DSOS cluster (the paper's
// storage path): each run's rows go down as one InsertTagged.
type DSOSStore struct {
	rowStore
	client *dsos.Client
	// Obs plane (set by Instrument; nil-safe counters otherwise).
	msgs    *obs.Counter
	objects *obs.Counter
}

// NewDSOSStore creates the store plugin over a connected client.
func NewDSOSStore(client *dsos.Client) *DSOSStore {
	s := &DSOSStore{client: client}
	s.init(s.insert)
	return s
}

// Name implements StorePlugin.
func (s *DSOSStore) Name() string { return "store_dsos" }

// insert is the DSOS store's sink: the rows go down as one InsertTagged
// tagged token. They live in the arena's memory for one run only:
// InsertTagged copies every row into the shards' pages and logs before it
// returns, so the next run rewinds the arena and builds its rows in the
// same words.
func (s *DSOSStore) insert(decoded int, token uint64) error {
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
