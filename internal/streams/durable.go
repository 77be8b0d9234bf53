package streams

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"darshanldms/internal/sos"
)

// DurableStream upgrades the best-effort bus to a JetStream-shaped
// delivery contract: every appended message is persisted to a CRC-framed
// WAL segment (sos.Frame over any sos.WALStore — the simulation's
// MemWAL or a real FileWAL) before the append is acknowledged, retained
// under explicit count/byte/age bounds with drop-oldest eviction and
// exact drop accounting, and served to named Consumer groups that track a
// durable acked floor, redeliver unacked messages, and replay history for
// late joiners. A crashed process reopens the stream from the same
// segment and resumes: retained messages, drop counters and consumer
// cursors all survive.
//
// The stream is deliberately clock-agnostic like the obs plane: all
// timestamps (message age, redelivery deadlines) come from the injected
// StreamConfig.Clock, so the simulation drives retention and redelivery
// in virtual time while real daemons pass a wall clock.

// RetentionPolicy bounds what a stream retains. Zero fields are
// unbounded; eviction is always drop-oldest, and every eviction is
// counted by reason and made durable with a trim marker so the
// accounting is exact across crashes.
type RetentionPolicy struct {
	MaxMsgs  int           // retained message count bound (0 = unbounded)
	MaxBytes int64         // retained payload byte bound (0 = unbounded)
	MaxAge   time.Duration // retained message age bound (0 = unbounded)
}

// StreamConfig parameterizes a DurableStream.
type StreamConfig struct {
	// Name identifies the stream (required). It is the handle
	// Bus.AppendStream and the obs series use.
	Name string
	// Subjects are the subject filters a bound bus routes into this
	// stream (wildcards allowed). Empty means every published subject.
	Subjects []string
	// Retention bounds the retained window.
	Retention RetentionPolicy
	// Clock supplies the stream's notion of now, for message ages and
	// redelivery deadlines. Sim-zone streams must pass virtual time (the
	// engine clock); real daemons pass a wall clock. Nil pins the clock
	// at zero, which disables age retention and makes every redelivery
	// immediately due.
	Clock func() time.Duration
}

// StreamStats is a point-in-time accounting snapshot of a stream. The
// conservation law Appended == Msgs + Dropped holds at every instant, and
// Dropped == FirstSeq-1: retention only ever trims the head, so the drop
// count and the retained window position are two views of one number.
type StreamStats struct {
	Name       string
	FirstSeq   uint64 // oldest retained sequence (LastSeq+1 when empty)
	LastSeq    uint64 // newest appended sequence (0 before the first)
	Msgs       int    // retained message count
	Bytes      int64  // retained payload bytes (a typed record counts its binary body)
	Appended   uint64 // messages ever appended (== LastSeq)
	Dropped    uint64 // messages evicted by retention, total
	DroppedFor [int(dropReasons)]uint64
	WALErrors  uint64 // segment appends that failed (trim markers, cursors)
}

// DurableStream is a named, persistent, replayable message log. It is
// safe for concurrent use.
type DurableStream struct {
	mu    sync.Mutex
	cfg   StreamConfig
	store sos.WALStore
	frame sos.Frame // reused segment record buffer
	marks []int     // reused AppendBatch scratch: record and body offsets

	// The retained window is the encoded batch bodies plus this index:
	// slots[head+i] is sequence firstSeq+i, a view into the body it
	// arrived in. Retention advances head; AppendBatch slides the window
	// back to the front of the array once the dead prefix outgrows it, so
	// a steady-state stream neither reallocates nor copies per append.
	slots    []slot
	head     int
	firstSeq uint64 // seq of slots[head]; lastSeq+1 when empty
	lastSeq  uint64
	bytes    int64
	drops    [int(dropReasons)]uint64
	walErrs  uint64
	producer string // last decoded producer name, reused by the next decode

	consumers map[string]*Consumer
	floors    map[string]uint64 // durable acked floors, incl. unclaimed
	// waiters is broadcast whenever a waiting consumer may have something
	// to do: on append, nak and consumer close (Consumer.Wait).
	waiters *sync.Cond
}

// OpenStream opens (creating if empty) the durable stream backed by
// store, replaying any existing segment: retained messages, retention
// trims and consumer cursors are all recovered, and a torn tail — the
// expected shape of a crash mid-append — is truncated cleanly (a FileWAL
// backing is Reset so appends resume after the last clean record).
func OpenStream(cfg StreamConfig, store sos.WALStore) (*DurableStream, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("streams: durable stream needs a name")
	}
	if store == nil {
		return nil, fmt.Errorf("streams: durable stream %q needs a segment store", cfg.Name)
	}
	if len(cfg.Subjects) == 0 {
		cfg.Subjects = []string{TailWildcard}
	}
	for _, f := range cfg.Subjects {
		if !ValidFilter(f) {
			return nil, fmt.Errorf("streams: stream %q: invalid subject filter %q", cfg.Name, f)
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration { return 0 }
	}
	s := &DurableStream{
		cfg:       cfg,
		store:     store,
		firstSeq:  1,
		consumers: map[string]*Consumer{},
		floors:    map[string]uint64{},
	}
	s.waiters = sync.NewCond(&s.mu)
	_, consumed, err := sos.ReplayFrames(store, s.applyReplay)
	if err != nil {
		return nil, fmt.Errorf("streams: stream %q replay: %w", cfg.Name, err)
	}
	if fw, ok := store.(*sos.FileWAL); ok {
		if err := fw.Reset(consumed); err != nil {
			return nil, fmt.Errorf("streams: stream %q truncate torn tail: %w", cfg.Name, err)
		}
	}
	// Floors can never sit past the appended window (a cursor record that
	// claims more than the recovered messages means the tail was torn
	// between the ack and the append it acked — resume conservatively).
	for name, fl := range s.floors {
		if fl > s.lastSeq {
			s.floors[name] = s.lastSeq
		}
	}
	// Re-apply retention against the current clock so an age bound trims
	// entries that expired while the process was down, and so bounds that
	// were tightened between incarnations take effect immediately.
	s.applyRetentionLocked(s.cfg.Clock())
	return s, nil
}

// applyReplay folds one recovered segment record into the stream state.
// body is the frame's own allocation, so batch slots may alias it.
func (s *DurableStream) applyReplay(body []byte) error {
	if len(body) == 0 {
		return sos.ErrStopReplay
	}
	switch body[0] {
	case segKindBatch:
		first, at, recs, err := decodeBatchHeader(body)
		if err != nil || first != s.lastSeq+1 {
			return sos.ErrStopReplay // corrupt or out-of-order: torn tail
		}
		// All or nothing: the batch joins the window only once every
		// record in it has decoded.
		mark := len(s.slots)
		if err := s.replayRecords(recs, at); err != nil {
			s.slots = s.slots[:mark]
			if errors.Is(err, errNoTypedCodec) {
				return err // unreadable here, not corrupt: fail the open
			}
			return sos.ErrStopReplay
		}
		for _, sl := range s.slots[mark:] {
			s.bytes += int64(sl.size)
		}
		s.lastSeq += uint64(len(s.slots) - mark)
	case segKindMsg:
		e, err := decodeMsgEntry(body)
		if err != nil || e.seq != s.lastSeq+1 {
			return sos.ErrStopReplay
		}
		// In memory there is one representation: the pre-batch entry is
		// re-encoded as the opaque record it would be written as today.
		rec, bodyAt := appendRecord(nil, &e.msg)
		s.slots = append(s.slots, slot{rec: rec, subject: e.msg.Tag, at: e.at, size: len(rec) - bodyAt})
		s.bytes += int64(len(rec) - bodyAt)
		s.lastSeq = e.seq
	case segKindCursor:
		name, floor, err := decodeCursorEntry(body)
		if err != nil {
			return sos.ErrStopReplay
		}
		if floor > s.floors[name] { // floors are monotone; keep the highest
			s.floors[name] = floor
		}
	case segKindDrop:
		reason, newFirst, err := decodeDropEntry(body)
		if err != nil || newFirst < s.firstSeq || newFirst > s.lastSeq+1 {
			return sos.ErrStopReplay
		}
		s.drops[reason] += newFirst - s.firstSeq
		for s.firstSeq < newFirst {
			s.dropHeadLocked()
		}
	default:
		return sos.ErrStopReplay
	}
	return nil
}

// replayRecords appends one slot per record of a recovered batch body.
func (s *DurableStream) replayRecords(recs []byte, at time.Duration) error {
	r := recReader{b: recs}
	n, err := r.count()
	if err != nil {
		return err
	}
	var prev Message
	for i := 0; i < n; i++ {
		start := r.off
		m, size, err := r.record(&prev)
		if err != nil {
			return err
		}
		s.slots = append(s.slots, slot{rec: recs[start:r.off:r.off], subject: m.Tag, at: at, size: size})
		prev = m
	}
	if r.off != len(recs) {
		return fmt.Errorf("streams: %d trailing bytes after batch", len(recs)-r.off)
	}
	return nil
}

// dropHeadLocked removes the oldest retained message from the window
// (s.mu held). The vacated slot is cleared so the batch body it viewed is
// collectable as soon as its last slot goes.
func (s *DurableStream) dropHeadLocked() {
	s.bytes -= int64(s.slots[s.head].size)
	s.slots[s.head] = slot{}
	s.head++
	s.firstSeq++
}

// retained returns the number of messages in the window (s.mu held).
func (s *DurableStream) retained() int { return len(s.slots) - s.head }

// Name returns the stream's name.
func (s *DurableStream) Name() string { return s.cfg.Name }

// Subjects returns the stream's bound subject filters.
func (s *DurableStream) Subjects() []string {
	out := make([]string, len(s.cfg.Subjects))
	copy(out, s.cfg.Subjects)
	return out
}

// Matches reports whether a published subject belongs in this stream.
func (s *DurableStream) Matches(subject string) bool {
	return MatchAny(s.cfg.Subjects, subject)
}

// Append durably appends one message — the batch of one — and returns its
// assigned sequence.
func (s *DurableStream) Append(m Message) (uint64, error) {
	one := [1]Message{m}
	return s.AppendBatch(one[:])
}

// AppendBatch durably appends msgs as one segment entry — one CRC frame,
// one Write, one retention pass — and returns the sequence assigned to
// msgs[0]; the rest follow contiguously. The records are persisted in the
// batch record codec, so a typed record is stored in binary and its lazy
// JSON payload is not forced. The batch is all or nothing: an error means
// no message was appended and the caller still owns their fate. Nothing
// of msgs is retained (a pooled carrier needs no Detach).
func (s *DurableStream) AppendBatch(msgs []Message) (uint64, error) {
	if len(msgs) == 0 {
		return 0, fmt.Errorf("streams: stream %q append: %w", s.cfg.Name, ErrEmptyBatch)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Clock()
	first := s.lastSeq + 1
	rec := appendBatchHeader(s.frame.Begin(), first, now)
	bodyAt := len(rec)
	rec = binary.AppendUvarint(rec, uint64(len(msgs)))
	s.marks = s.marks[:0]
	for i := range msgs {
		start := len(rec)
		var payloadAt int
		rec, payloadAt = appendRecord(rec, &msgs[i])
		s.marks = append(s.marks, start-bodyAt, payloadAt-bodyAt)
	}
	if err := s.frame.Commit(s.store, rec); err != nil {
		return 0, fmt.Errorf("streams: stream %q append: %w", s.cfg.Name, err)
	}
	// The frame buffer is reused; the window keeps its own copy of the
	// body, one allocation for the whole batch.
	body := append([]byte(nil), rec[bodyAt:]...)
	if s.head > 0 && s.head >= s.retained() {
		n := copy(s.slots, s.slots[s.head:])
		clear(s.slots[n:])
		s.slots, s.head = s.slots[:n], 0
	}
	for i := range msgs {
		start, payloadAt, end := s.marks[2*i], s.marks[2*i+1], len(body)
		if i+1 < len(msgs) {
			end = s.marks[2*i+2]
		}
		s.slots = append(s.slots, slot{rec: body[start:end:end], subject: msgs[i].Tag, at: now, size: end - payloadAt})
		s.bytes += int64(end - payloadAt)
	}
	s.lastSeq += uint64(len(msgs))
	s.applyRetentionLocked(now)
	s.waiters.Broadcast()
	return first, nil
}

// applyRetentionLocked evicts head messages until every retention bound
// holds, writing one durable trim marker per contiguous same-reason run
// (s.mu held). Age is checked first — an expired message is already gone
// in spirit — then count, then bytes.
func (s *DurableStream) applyRetentionLocked(now time.Duration) {
	r := s.cfg.Retention
	var reason DropReason
	marked := s.firstSeq // where the pending same-reason run started
	flush := func() {
		if s.firstSeq == marked {
			return
		}
		if err := s.frame.Commit(s.store, appendDropEntry(s.frame.Begin(), reason, s.firstSeq)); err != nil {
			// The in-memory trim stands; a reopened stream re-trims and
			// re-marks, so the only cost of a lost marker is a re-count.
			s.walErrs++
		}
		marked = s.firstSeq
	}
	for s.retained() > 0 {
		var why DropReason
		switch {
		case r.MaxAge > 0 && s.slots[s.head].at+r.MaxAge < now:
			why = DropByAge
		case r.MaxMsgs > 0 && s.retained() > r.MaxMsgs:
			why = DropByCount
		case r.MaxBytes > 0 && s.bytes > r.MaxBytes:
			why = DropByBytes
		default:
			flush()
			return
		}
		if why != reason {
			flush()
			reason = why
		}
		s.dropHeadLocked()
		s.drops[why]++
	}
	flush()
}

// slotAt returns the retained slot with the given sequence (s.mu held),
// or nil when it is outside the retained window.
func (s *DurableStream) slotAt(seq uint64) *slot {
	if seq < s.firstSeq || seq > s.lastSeq {
		return nil
	}
	return &s.slots[s.head+int(seq-s.firstSeq)]
}

// messageLocked decodes a retained slot back into the message it was
// appended from (s.mu held): a typed record comes back typed-first, an
// opaque payload shares the immutable batch body. It reports false for a
// nil slot — a sequence outside the window. Every retained slot was
// encoded by AppendBatch or fully decoded once by replay, so its decode
// cannot fail on bytes this process holds; should it ever, the message
// is reported gone like an evicted one rather than delivered as garbage.
func (s *DurableStream) messageLocked(sl *slot) (Message, bool) {
	if sl == nil {
		return Message{}, false
	}
	r := recReader{b: sl.rec}
	prev := Message{Tag: sl.subject, Producer: s.producer}
	m, _, err := r.record(&prev)
	if err != nil {
		return Message{}, false
	}
	s.producer = m.Producer
	return m, true
}

// Stats returns an accounting snapshot.
func (s *DurableStream) Stats() StreamStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statsLocked()
}

func (s *DurableStream) statsLocked() StreamStats {
	st := StreamStats{
		Name:      s.cfg.Name,
		FirstSeq:  s.firstSeq,
		LastSeq:   s.lastSeq,
		Msgs:      s.retained(),
		Bytes:     s.bytes,
		Appended:  s.lastSeq,
		WALErrors: s.walErrs,
	}
	for i, n := range s.drops {
		st.DroppedFor[i] = n
		st.Dropped += n
	}
	return st
}

// ConsumerNames returns, sorted, the names of every consumer the stream
// knows — live ones and durable cursors awaiting a claim.
func (s *DurableStream) ConsumerNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.consumerNamesLocked()
}

func (s *DurableStream) consumerNamesLocked() []string {
	out := make([]string, 0, len(s.floors))
	for name := range s.floors { // every consumer, live or not, has a floor entry
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ConsumerStats returns the stats of every known consumer, sorted by
// name (durable cursors without a live consumer report floor and lag
// only).
func (s *DurableStream) ConsumerStats() []ConsumerStats {
	return s.consumerStats(false)
}

// consumerStats snapshots every consumer; scrape marks the snapshot as a
// telemetry scrape's, which starts a new LagPeak interval.
func (s *DurableStream) consumerStats(scrape bool) []ConsumerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := s.consumerNamesLocked()
	out := make([]ConsumerStats, 0, len(names))
	for _, name := range names {
		if c, ok := s.consumers[name]; ok {
			out = append(out, c.statsLocked())
			if scrape {
				c.lagPeak = 0
			}
			continue
		}
		fl := s.floors[name]
		out = append(out, ConsumerStats{
			Name: name, AckFloor: fl, Lag: s.lastSeq - fl,
		})
	}
	return out
}

// String summarizes the stream.
func (s *DurableStream) String() string {
	st := s.Stats()
	return fmt.Sprintf("streams.DurableStream{%s: seq [%d,%d], %d msgs, %d dropped}",
		st.Name, st.FirstSeq, st.LastSeq, st.Msgs, st.Dropped)
}
