package streams

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
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
// cursors all survive. Retention bounds the segment too (compact).
//
// The stream is deliberately clock-agnostic like the obs plane: all
// timestamps (message age, redelivery deadlines) come from the injected
// StreamConfig.Clock, so the simulation drives retention and redelivery
// in virtual time while real daemons pass a wall clock.

// RetentionPolicy bounds what a stream retains. Zero fields are
// unbounded; eviction is always drop-oldest, and every eviction is
// counted by reason and made durable with a trim marker so the
// accounting is exact across crashes.
//
// MaxBytes counts payload bytes as stored: an opaque record's payload
// length, and a typed record's encoded body. In a version-2 batch that
// body is written against record 0 and record 0 spells out the strings
// the batch shares, so record 0 counts for more than the records after
// it, and a bound keeps more typed messages than it did when each was
// stored whole.
type RetentionPolicy struct {
	MaxMsgs  int           // retained message count bound (0 = unbounded)
	MaxBytes int64         // retained payload byte bound (0 = unbounded)
	MaxAge   time.Duration // retained message age bound (0 = unbounded)
}

// OverflowPolicy selects what an append does to a window already at
// Retention.MaxMsgs.
type OverflowPolicy int

// Overflow policies.
const (
	// DropOldest trims the head, counted as a retention drop by count
	// (the default; monitoring usually prefers recency).
	DropOldest OverflowPolicy = iota
	// DropNewest refuses an append that does not fit whole, counted as
	// refused.
	DropNewest
	// Block makes the append wait until acks release room, or refuses it
	// once no consumer is left to ack: backpressure onto the publisher.
	Block
)

func (p OverflowPolicy) String() string {
	switch p {
	case DropOldest:
		return "drop-oldest"
	case DropNewest:
		return "drop-newest"
	case Block:
		return "block"
	}
	return fmt.Sprintf("OverflowPolicy(%d)", int(p))
}

// ParseOverflowPolicy parses the string forms used by command-line flags.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	for p := DropOldest; p <= Block; p++ {
		if s == p.String() {
			return p, nil
		}
	}
	if s == "" {
		return DropOldest, nil
	}
	return 0, fmt.Errorf("streams: unknown overflow policy %q (want drop-oldest, drop-newest or block)", s)
}

// ErrWindowFull is returned by an append a full window refused.
var ErrWindowFull = errors.New("streams: window full")

// StreamConfig parameterizes a DurableStream.
type StreamConfig struct {
	// Name identifies the stream (required). It is the handle
	// Bus.Stream and the obs series use.
	Name string
	// Subjects are the subject filters a bound bus routes into this
	// stream (wildcards allowed). Empty means every published subject.
	Subjects []string
	// Retention bounds the retained window.
	Retention RetentionPolicy
	// Overflow is what an append does to a window at Retention.MaxMsgs.
	// DropNewest and Block need a memory-only stream: elsewhere acked
	// entries stay in the window, and no ack would ever make room. Under
	// both, an empty window takes a batch larger than the bound whole, so
	// the window can exceed it by that one batch and loses nothing.
	Overflow OverflowPolicy
	// Clock supplies the stream's notion of now, for message ages and
	// redelivery deadlines. Sim-zone streams must pass virtual time (the
	// engine clock); real daemons pass a wall clock. Nil pins the clock
	// at zero, which disables age retention and makes every redelivery
	// immediately due.
	Clock func() time.Duration
}

// StreamStats is a point-in-time accounting snapshot of a stream. The
// conservation law Appended == Msgs + Dropped + Released holds at every
// instant, and Dropped + Released == FirstSeq-1: retention and release
// only ever trim the head, so those counts and the retained window
// position are two views of one number. A refused append never got a
// sequence and stands outside the law.
type StreamStats struct {
	Name         string
	FirstSeq     uint64 // oldest retained sequence (LastSeq+1 when empty)
	LastSeq      uint64 // newest appended sequence (0 before the first)
	Msgs         int    // retained message count
	Bytes        int64  // retained payload bytes (a typed record counts its binary body)
	Appended     uint64 // messages ever appended (== LastSeq)
	Dropped      uint64 // messages evicted by retention, total
	DroppedFor   [int(dropReasons)]uint64
	Released     uint64 // messages a memory-only window let go once acked
	Refused      uint64 // messages of appends a full window refused
	WALErrors    uint64 // segment appends that failed (trim markers, cursors)
	SegmentBytes int64  // the segment's length: the disk it holds
	Rewritten    int64  // bytes this process's compactions wrote
}

// DurableStream is a named, persistent, replayable message log. It is
// safe for concurrent use.
type DurableStream struct {
	mu    sync.Mutex
	cfg   StreamConfig
	store sos.WALStore // nil for a memory-only stream
	frame sos.Frame    // reused segment record buffer
	w     BatchContext // reused AppendBatch table
	body  []byte       // reused AppendBatch scratch: the body written
	ws    []slot       // and its records

	// The window, firstSeq to lastSeq, is settled history — whole batches
	// every known consumer has settled, as held (where each lies in the
	// segment) and sizes[i], firstSeq+i's payload size; back is the batch
	// read back last — then slots, one view per message into its body.
	// Bodies, contexts and tables are windows of shared chunks.
	held     ring[heldBatch]
	sizes    ring[int32]
	slots    ring[slot]
	back     []slot
	segLen   int64  // the segment's length; -1 once a failed write left it unknown
	firstSeq uint64 // lastSeq+1 when empty
	lastSeq  uint64
	bytes    int64
	drops    [int(dropReasons)]uint64
	released uint64
	refused  uint64
	walErrs  uint64
	bodies   chunks[byte]
	ctxs     chunks[batchCtx]
	strs     chunks[string]

	consumers map[string]*Consumer
	floors    map[string]uint64 // durable acked floors, incl. unclaimed
	saved     map[string]uint64 // the floors the segment holds: what a reopen reads

	base       *segBase // the base record a replay read, until the open ends
	rewritten  int64
	retry      int64       // after a failed compaction: the length to try again at
	compacting bool        // a compaction is building the segment's copy
	closed     bool        // Close: no more compactions
	due        atomic.Bool // an append found a compaction due
	// waiters is broadcast whenever a waiting consumer may have something
	// to do, or a Block append room: on append, nak, release and consumer
	// close (Consumer.Wait, admitLocked).
	waiters *sync.Cond
}

// OpenStream opens (creating if empty) the durable stream backed by
// store, replaying any existing segment: retained messages, retention
// trims and consumer cursors are all recovered, and a torn tail — the
// expected shape of a crash mid-append — is truncated cleanly (a FileWAL
// backing is Reset so appends resume after the last clean record). A nil
// store opens a memory-only stream.
func OpenStream(cfg StreamConfig, store sos.WALStore) (*DurableStream, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("streams: durable stream needs a name")
	}
	if store != nil && cfg.Overflow != DropOldest {
		return nil, fmt.Errorf("streams: stream %q: overflow policy %s needs a memory-only stream", cfg.Name, cfg.Overflow)
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
		saved:     map[string]uint64{},
	}
	s.waiters = sync.NewCond(&s.mu)
	if store == nil {
		return s, nil
	}
	_, consumed, err := sos.ReplayFrames(store, s.applyReplay)
	if err == nil && s.base != nil && s.lastSeq < s.base.last {
		err = fmt.Errorf("segment ends at %d, inside its base window [%d,%d]", s.lastSeq, s.base.first, s.base.last)
	}
	if err != nil {
		return nil, fmt.Errorf("streams: stream %q replay: %w", cfg.Name, err)
	}
	s.base = nil
	// Appends resume at the end of the last clean entry, where the offsets
	// of settled history expect them.
	s.segLen = consumed
	if err := store.Reset(consumed); err != nil {
		return nil, fmt.Errorf("streams: stream %q truncate torn tail: %w", cfg.Name, err)
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
	s.compactLocked()
	s.due.Store(s.dueLocked())
	s.compactIfDue()
	return s, nil
}

// applyReplay folds one recovered segment record into the stream state.
// body is the frame's own allocation, so batch slots may alias it.
func (s *DurableStream) applyReplay(body []byte) error {
	off := s.segLen // this record's; OpenStream sets the end
	s.segLen += int64(sos.FrameHeader + len(body))
	if len(body) == 0 {
		return sos.ErrStopReplay
	}
	switch body[0] {
	case segKindBatch, segKindMsg:
		first := s.lastSeq + 1
		at, recs, err := entryRecords(body, first)
		if err != nil {
			return replayErr(err) // corrupt or out-of-order: torn tail
		}
		return s.replayBatch(recs, heldBatch{off: off, first: first, at: at, size: uint32(len(body))})
	case segKindCursor:
		name, floor, err := decodeCursorEntry(body)
		if err != nil {
			return sos.ErrStopReplay
		}
		if floor > s.floors[name] { // floors are monotone; keep the highest
			s.floors[name], s.saved[name] = floor, floor
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
	case segKindBase:
		sb, err := decodeBaseEntry(body)
		if err != nil || off != 0 {
			return sos.ErrStopReplay
		}
		s.firstSeq, s.lastSeq, s.drops, s.base = sb.start, sb.start-1, sb.drops, &sb
		for name, fl := range sb.floors {
			s.floors[name], s.saved[name] = fl, fl
		}
	default:
		return sos.ErrStopReplay
	}
	return nil
}

// entryRecords returns the append time and version-2 records of a stored
// message entry starting at sequence first (version 1 and msg re-encoded).
func entryRecords(body []byte, first uint64) (time.Duration, []byte, error) {
	seq, version, at, recs, err := decodeBatchHeader(body)
	if len(body) > 0 && body[0] == segKindMsg {
		var e legacyMsg
		e, err = decodeMsgEntry(body)
		one := [1]Message{e.msg}
		seq, version, at, recs = e.seq, BodyV2, e.at, AppendRecords(nil, one[:])
	}
	if err == nil && seq != first {
		err = fmt.Errorf("streams: segment entry at sequence %d, want %d", seq, first)
	}
	if err == nil && version == BodyV1 {
		var msgs []Message
		msgs, err = DecodeRecords(BodyV1, recs)
		recs = AppendRecords(nil, msgs)
	}
	return at, recs, err
}

// replayBatch appends one slot per record of a recovered version-2 batch
// body, which the slots alias. All or nothing: the batch joins the window
// only once every record in it has walked cleanly.
func (s *DurableStream) replayBatch(recs []byte, h heldBatch) error {
	k := &batchCtx{held: h, body: recs}
	_ = k.Reset(BodyV2, nil)
	slots, err := walkBody(recs, k, s.ws[:0])
	if err != nil {
		return replayErr(err)
	}
	k.held.n = uint32(len(slots))
	for _, sl := range slots {
		s.slots.push(sl)
		s.bytes += int64(sl.size)
	}
	clear(slots) // the scratch keeps nothing of the body
	s.ws = slots
	s.lastSeq += uint64(len(slots))
	for s.base != nil && s.firstSeq < s.base.first { // counted in the base
		s.dropHeadLocked()
	}
	return nil
}

// readBackLocked reads settled batch h back into back, slots over a fresh
// body that deliveries may alias, checking it is the batch h says (s.mu
// held).
func (s *DurableStream) readBackLocked(h heldBatch) error {
	k := &batchCtx{held: h}
	_ = k.Reset(BodyV2, nil)
	body, err := sos.ReadFrameAt(s.store, h.off, h.size)
	var slots []slot
	if err == nil {
		if _, k.body, err = entryRecords(body, h.first); err == nil {
			slots, err = walkBody(k.body, k, make([]slot, 0, h.n))
		}
	}
	if err == nil && len(slots) != int(h.n) {
		err = fmt.Errorf("%d records, want %d", len(slots), h.n)
	}
	if err != nil {
		return fmt.Errorf("streams: stream %q: read back batch %d: %w", s.cfg.Name, h.first, err)
	}
	s.back = slots
	return nil
}

// replayErr is what replay makes of a batch that does not decode: the
// torn tail, unless this process cannot read typed records at all.
func replayErr(err error) error {
	if errors.Is(err, errNoTypedCodec) {
		return err // unreadable here, not corrupt: fail the open
	}
	return sos.ErrStopReplay
}

// walkBody is the one validating walk of a stored or received batch body,
// shared by replay and PublishBody. In one pass it checks the record
// count, every record's bounds and that no bytes trail, and appends to
// slots one slot per record, a view of body against k. It builds k's
// table and base and nothing else: a typed body is skipped by the codec,
// so nothing is allocated per record.
func walkBody(body []byte, k *batchCtx, slots []slot) ([]slot, error) {
	r := NewRecordWalker(body, &k.BatchContext)
	n, err := r.Count()
	if err != nil {
		return slots, err
	}
	for i := 0; i < n; i++ {
		start, strBase := r.Offset(), k.n
		e, err := r.Next()
		if err != nil {
			return slots, err
		}
		size := len(e.Payload)
		if e.Kind == RecTyped {
			if typedCodec == nil {
				return slots, errNoTypedCodec
			}
			if size, err = typedCodec.SkipTyped(r.Rest(), r.c); err != nil {
				return slots, err
			}
			r.Skip(size)
		}
		end := r.Offset()
		slots = append(slots, slot{rec: body[start:end:end], ctx: k, subject: e.Tag, size: int32(size), strBase: int32(strBase)})
	}
	return slots, r.Done()
}

// dropHeadLocked removes the oldest retained message from the window
// (s.mu held). The vacated slot is cleared, and with its batch's last slot
// the batch's context, so the body is collectable once its last slot goes.
func (s *DurableStream) dropHeadLocked() {
	if s.sizes.n > 0 {
		s.bytes -= int64(*s.sizes.at(0))
		s.sizes.pop()
		if s.firstSeq == s.held.at(0).last() {
			s.held.pop()
		}
	} else {
		sl := s.slots.at(0)
		s.bytes -= int64(sl.size)
		if k := sl.ctx; s.firstSeq == k.held.last() {
			*k = batchCtx{}
		}
		s.slots.pop()
	}
	s.firstSeq++
}

// retained returns the number of messages in the window (s.mu held).
func (s *DurableStream) retained() int { return s.sizes.n + s.slots.n }

// headAt returns when the oldest retained message was appended (s.mu held).
func (s *DurableStream) headAt() time.Duration {
	if s.sizes.n > 0 {
		return s.held.at(0).at
	}
	return s.slots.at(0).ctx.held.at
}

// settledLocked returns the lowest floor: the sequence every known
// consumer has settled through (the head when none is known; s.mu held).
func (s *DurableStream) settledLocked() uint64 {
	floor := s.lastSeq
	for _, f := range s.floors {
		floor = min(floor, f)
	}
	return floor
}

// compactLocked moves each whole batch at the front of slots that every
// known consumer has settled into settled history (s.mu held).
func (s *DurableStream) compactLocked() {
	floor := s.settledLocked()
	for s.slots.n > 0 {
		k := s.slots.at(0).ctx
		if k.held.off < 0 || k.held.last() > floor {
			return
		}
		s.held.push(k.held)
		for s.slots.n > 0 && s.slots.at(0).ctx == k {
			s.sizes.push(s.slots.at(0).size)
			s.slots.pop()
		}
		*k = batchCtx{} // its chunk may outlive it: let go of the body
	}
}

// commitLocked writes one record to the segment and returns its offset
// (s.mu held): -1 for good once a failed write left the length unknown.
func (s *DurableStream) commitLocked(rec []byte) (int64, error) {
	off := s.segLen
	err := s.frame.Commit(s.store, rec)
	if err != nil || off < 0 {
		s.segLen = -1
		return -1, err
	}
	s.segLen += int64(len(rec))
	return off, nil
}

// compactFloor is the least dead prefix a compaction removes: a
// constant, which tests lower through export_test.go.
var compactFloor int64 = 1 << 20

// dueLocked reports whether the segment is due a compaction (s.mu held):
// its dead prefix — the bytes before the frame of the batch that holds
// firstSeq, all of them when the window is empty — is at least as large as
// the bytes kept, and at least compactFloor. Copying then costs at most a
// byte per byte appended, and the segment stays within twice the window
// plus one batch.
func (s *DurableStream) dueLocked() bool {
	dead := s.segLen
	if s.sizes.n > 0 {
		dead = s.held.at(0).off
	} else if s.slots.n > 0 {
		dead = s.slots.at(0).ctx.held.off
	}
	return s.store != nil && !s.compacting && !s.closed && dead > 0 && dead >= compactFloor && 2*dead >= s.segLen && s.segLen >= s.retry
}

// compactIfDue runs the compaction an append found due, once the append
// has let go of the lock: the appender pays for the copy. One that fails
// (the disk is full) leaves the segment as it was, and the next waits
// until the segment has doubled.
func (s *DurableStream) compactIfDue() {
	if s.due.CompareAndSwap(true, false) {
		_ = s.compact(false)
	}
}

// eachBatchLocked calls f with every retained batch's place in the
// segment, in sequence order: settled history, then the batch of each run
// of unsettled slots (s.mu held).
func (s *DurableStream) eachBatchLocked(f func(h *heldBatch)) {
	for i := 0; i < s.held.n; i++ {
		f(s.held.at(i))
	}
	for i := 0; i < s.slots.n; i = int(s.slots.at(i).ctx.held.last()-s.firstSeq) + 1 - s.sizes.n {
		f(&s.slots.at(i).ctx.held)
	}
}

// compact rewrites the segment in place (WALStore.Replace) as a base
// record — the window's edges, the drop counts and the floors the segment
// holds — then the window's batch frames as they were written, then what
// was appended while the copy was built. The copy is built off the lock
// from frames that never change; the lock is taken only to copy what was
// appended since, swap the file and move every offset held into it.
// Unless force, it rewrites only a segment dueLocked.
func (s *DurableStream) compact(force bool) error {
	s.mu.Lock()
	if s.compacting || s.closed || s.store == nil || s.segLen < 0 || !force && !s.dueLocked() {
		s.mu.Unlock()
		return nil
	}
	s.compacting = true
	cut := s.segLen
	sb := segBase{first: s.firstSeq, last: s.lastSeq, start: s.lastSeq + 1, drops: s.drops, floors: maps.Clone(s.saved)}
	var olds []heldBatch
	s.eachBatchLocked(func(h *heldBatch) { olds = append(olds, *h) })
	if len(olds) > 0 {
		sb.start = olds[0].first
	}
	s.mu.Unlock()

	news := make([]int64, len(olds))
	var n, tail int64 // the copy's length, and where what was appended since starts in it
	locked := false
	err := s.store.Replace(func(w io.Writer) error {
		var f sos.Frame
		rec := appendBaseEntry(f.Begin(), &sb)
		if err := f.Commit(w, rec); err != nil {
			return err
		}
		n = int64(len(rec))
		var buf []byte
		for i, h := range olds {
			buf = slices.Grow(buf[:0], sos.FrameHeader+int(h.size))[:sos.FrameHeader+int(h.size)]
			if got, err := s.store.ReadAt(buf, h.off); got != len(buf) {
				return fmt.Errorf("read batch %d at %d: %w", h.first, h.off, err)
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
			news[i], n = n, n+int64(len(buf))
		}
		if f, ok := w.(interface{ Sync() error }); ok { // the bulk reaches the disk off the lock
			if err := f.Sync(); err != nil {
				return err
			}
		}
		s.mu.Lock() //lint:allow lockheld held through the swap; compact unlocks it once Replace returns
		locked, tail = true, n
		if s.segLen < 0 {
			return fmt.Errorf("segment length lost to a failed write")
		}
		n += s.segLen - cut
		_, err := io.Copy(w, io.NewSectionReader(s.store, cut, s.segLen-cut))
		return err
	})
	if !locked {
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	s.compacting = false
	s.waiters.Broadcast() // Close may be waiting
	if err != nil {
		s.retry = 2 * cut // not again before the segment has doubled
		return fmt.Errorf("streams: stream %q compact: %w", s.cfg.Name, err)
	}
	move := func(h *heldBatch) {
		i := sort.Search(len(olds), func(i int) bool { return olds[i].off >= h.off })
		switch {
		case h.off >= cut:
			h.off += tail - cut
		case i < len(olds) && olds[i].off == h.off:
			h.off = news[i]
		default:
			h.off = -1 // not in the copy: never read again
		}
	}
	s.eachBatchLocked(move)
	if len(s.back) > 0 {
		move(&s.back[0].ctx.held)
	}
	s.segLen, s.rewritten, s.retry = n, s.rewritten+n, 0
	return nil
}

// Close waits out a compaction in progress and starts no other, so the
// segment's store can be closed with no temporary beside it. The stream
// stays usable.
func (s *DurableStream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for s.compacting {
		s.waiters.Wait()
	}
}

// ring is a FIFO over a power-of-two array that doubles when full and
// halves when mostly empty: steady state neither allocates nor copies.
type ring[T any] struct {
	a       []T
	head, n int
}

func (r *ring[T]) at(i int) *T { return &r.a[(r.head+i)&(len(r.a)-1)] }

func (r *ring[T]) push(v T) {
	if r.n == len(r.a) {
		r.resize(max(16, 2*len(r.a)))
	}
	r.n++
	*r.at(r.n - 1) = v
}

// pop clears the oldest element, so nothing it referenced stays alive.
func (r *ring[T]) pop() {
	*r.at(0) = *new(T)
	r.head = (r.head + 1) & (len(r.a) - 1)
	r.n--
	if len(r.a) > 256 && r.n < len(r.a)/8 {
		r.resize(len(r.a) / 2)
	}
}

func (r *ring[T]) resize(size int) {
	a := make([]T, size)
	k := copy(a, r.a[r.head:min(r.head+r.n, len(r.a))])
	copy(a[k:], r.a[:r.n-k])
	r.a, r.head = a, 0
}

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
// of msgs is retained, so a slab-owned record may be appended as it is.
func (s *DurableStream) AppendBatch(msgs []Message) (uint64, error) {
	if len(msgs) == 0 {
		return 0, fmt.Errorf("streams: stream %q append: %w", s.cfg.Name, ErrEmptyBatch)
	}
	defer s.compactIfDue()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(len(msgs)); err != nil {
		return 0, err
	}
	_ = s.w.Reset(BodyV2, nil)
	body := binary.AppendUvarint(s.body[:0], uint64(len(msgs)))
	s.ws = s.ws[:0]
	for i := range msgs {
		start, strBase := len(body), s.w.n
		var payloadAt int
		body, payloadAt = s.w.appendRecord(body, &msgs[i])
		// Only the view's length counts: appendLocked lays it on the body.
		s.ws = append(s.ws, slot{rec: body[start:], subject: msgs[i].Tag, size: int32(len(body) - payloadAt), strBase: int32(strBase)})
	}
	s.body = body
	return s.appendLocked(body, &s.w, s.ws)
}

// appendBody durably appends a walked body (PublishBody) as it stands.
func (s *DurableStream) appendBody(body []byte, w *BatchContext, ws []slot) (uint64, error) {
	defer s.compactIfDue()
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.admitLocked(len(ws)); err != nil {
		return 0, err
	}
	return s.appendLocked(body, w, ws)
}

// admitLocked applies the overflow policy to an append of n messages
// (s.mu held). DropNewest refuses a batch that does not fit whole; Block
// waits for acks to release room while a consumer is live to ack; an
// empty window takes any batch whole, even one larger than the bound,
// and DropOldest leaves the trim to retention. Under the other two,
// retention never trims by count: this is their only bound.
func (s *DurableStream) admitLocked(n int) error {
	for max := s.cfg.Retention.MaxMsgs; s.cfg.Overflow != DropOldest && max > 0 &&
		s.retained() > 0 && s.retained()+n > max; {
		if s.cfg.Overflow == DropNewest || !s.liveLocked() {
			s.refused += uint64(n)
			return ErrWindowFull
		}
		s.waiters.Wait()
	}
	return nil
}

// liveLocked reports whether a consumer is attached (s.mu held).
func (s *DurableStream) liveLocked() bool {
	for _, c := range s.consumers {
		if !c.closed {
			return true
		}
	}
	return false
}

// releaseLocked lets a memory-only window go of every entry all
// consumers have settled (s.mu held), and wakes a Block append.
func (s *DurableStream) releaseLocked() {
	floor := s.settledLocked()
	if s.retained() == 0 || s.firstSeq > floor {
		return
	}
	for s.retained() > 0 && s.firstSeq <= floor {
		s.dropHeadLocked()
		s.released++
	}
	s.waiters.Broadcast()
}

// appendLocked durably appends a version-2 body as one batch entry (s.mu
// held): w is the table and base it was written against and ws holds one
// slot per record, in order, each as long as its record. The window keeps
// its own copies of the body, the base and the strings.
func (s *DurableStream) appendLocked(body []byte, w *BatchContext, ws []slot) (uint64, error) {
	now, first := s.cfg.Clock(), s.lastSeq+1
	h := heldBatch{off: -1, first: first, at: now, n: uint32(len(ws))}
	if s.store != nil {
		rec := append(appendBatchHeader(s.frame.Begin(), first, now), body...)
		h.size = uint32(len(rec) - sos.FrameHeader)
		var err error
		if h.off, err = s.commitLocked(rec); err != nil {
			return 0, fmt.Errorf("streams: stream %q append: %w", s.cfg.Name, err)
		}
	}
	k := &s.ctxs.take(1, ctxChunk)[0]
	k.held, k.Base, k.seq0 = h, w.Base, w.seq0
	k.body = s.bodies.take(len(body), bodyChunk)
	copy(k.body, body)
	k.strs = s.strs.take(len(w.strs), strChunk)
	copy(k.strs, w.strs)
	_, off := binary.Uvarint(body)
	for _, sl := range ws {
		end := off + len(sl.rec)
		sl.rec, sl.ctx = k.body[off:end:end], k
		s.slots.push(sl)
		s.bytes += int64(sl.size)
		off = end
	}
	s.lastSeq += uint64(len(ws))
	s.applyRetentionLocked(now)
	if s.dueLocked() {
		s.due.Store(true)
	}
	s.waiters.Broadcast()
	return first, nil
}

// Chunk sizes, in elements, of a stream's append memory.
const (
	bodyChunk = 64 << 10
	ctxChunk  = 64
	strChunk  = 1024
)

// chunks hands out capacity-capped windows of shared chunks, so a
// batch's body, context and table cost no allocation of their own. A
// chunk is collected once no retained slot views it.
type chunks[T any] struct{ free []T }

func (c *chunks[T]) take(n, chunk int) []T {
	if n > len(c.free) {
		c.free = make([]T, max(n, chunk))
	}
	w := c.free[:n:n]
	c.free = c.free[n:]
	return w
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
		if s.firstSeq == marked || s.store == nil {
			return
		}
		if _, err := s.commitLocked(appendDropEntry(s.frame.Begin(), reason, s.firstSeq)); err != nil {
			// The in-memory trim stands; a reopened stream re-trims and
			// re-marks, so the only cost of a lost marker is a re-count.
			s.walErrs++
		}
		marked = s.firstSeq
	}
	for s.retained() > 0 {
		var why DropReason
		switch {
		case r.MaxAge > 0 && s.headAt()+r.MaxAge < now:
			why = DropByAge
		case r.MaxMsgs > 0 && s.cfg.Overflow == DropOldest && s.retained() > r.MaxMsgs:
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
// or nil when it is outside the retained window. A settled message's slot
// is read back from the segment: an error is a batch that could not be.
func (s *DurableStream) slotAt(seq uint64) (*slot, error) {
	if seq < s.firstSeq || seq > s.lastSeq {
		return nil, nil
	}
	if i := int(seq - s.firstSeq); i >= s.sizes.n {
		return s.slots.at(i - s.sizes.n), nil
	}
	if len(s.back) == 0 || seq-s.back[0].ctx.held.first >= uint64(len(s.back)) {
		i := sort.Search(s.held.n, func(i int) bool { return s.held.at(i).first > seq }) - 1
		if err := s.readBackLocked(*s.held.at(i)); err != nil {
			return nil, err
		}
	}
	return &s.back[seq-s.back[0].ctx.held.first], nil
}

// messageLocked decodes a retained slot back into the message it was
// appended from (s.mu held): a typed record comes back typed-first, an
// opaque payload shares the immutable batch body, and every string is
// the batch table's. It reports false for a nil slot — a sequence outside
// the window. Every retained slot was encoded by AppendBatch or fully
// decoded once by replay, so its decode cannot fail on bytes this process
// holds; should it ever, the message is reported gone like an evicted one
// rather than delivered as garbage.
func (s *DurableStream) messageLocked(sl *slot) (Message, bool) {
	if sl == nil {
		return Message{}, false
	}
	// The walk starts at the slot's own record: its table position is the
	// slot's string base, and only record 0 spells out ids from 0.
	c := &sl.ctx.BatchContext
	c.n = int(sl.strBase)
	r := NewRecordWalker(sl.rec, c)
	if sl.strBase > 0 {
		r.i = 1
	}
	m, _, err := r.record()
	if err != nil {
		return Message{}, false
	}
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
		Name:         s.cfg.Name,
		FirstSeq:     s.firstSeq,
		LastSeq:      s.lastSeq,
		Msgs:         s.retained(),
		Bytes:        s.bytes,
		Appended:     s.lastSeq,
		Released:     s.released,
		Refused:      s.refused,
		WALErrors:    s.walErrs,
		SegmentBytes: max(s.segLen, 0),
		Rewritten:    s.rewritten,
	}
	for i, n := range s.drops {
		st.DroppedFor[i] = n
		st.Dropped += n
	}
	return st
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
