package streams

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Consumer is a durable, acknowledged cursor over a DurableStream —
// the JetStream-shaped contract that lets a subscriber lag, crash and
// catch up without perturbing publishers. Delivery is pull-based
// (Fetch), at-least-once, flow-controlled by a max-inflight window, and
// redelivered on deadline with capped exponential backoff:
//
//	          Fetch                 Ack
//	pending ───────▶ inflight ───────────▶ acked ──▶ floor advances
//	  ▲                │                              (durable cursor)
//	  │   deadline/Nak │
//	  └────────────────┘
//
// The acked floor — every sequence at or below it is acked, or was
// evicted by retention before it could be — is checkpointed to the
// stream's WAL segment whenever it advances, so a restarted consumer
// resumes exactly where its durable cursor left off. Messages acked out
// of order above the floor are remembered in memory only: after a crash
// they are redelivered, never skipped, keeping the contract
// at-least-once (pair the handler with an ldms.DedupStore for
// exactly-once effect). The floor is monotone by construction; it never
// moves backward, crash or no crash.
type Consumer struct {
	s           *DurableStream
	name        string
	maxInflight int
	ackWait     time.Duration

	// All mutable state below is guarded by s.mu.
	floor   uint64
	acked   map[uint64]struct{} // acked/skipped above the floor
	infl    map[uint64]inflightMsg
	nextSeq uint64 // next never-considered sequence
	lagPeak uint64 // deepest backlog any Fetch has faced since the last telemetry scrape
	closed  bool

	bodyRound []Delivery // FetchBodies' result, reused by the next
	bodySlots []slot     // and the slot of each of its deliveries

	delivered   uint64
	redelivered uint64
	ackedCount  uint64
	naks        uint64
	missed      uint64 // skipped: evicted by retention before delivery
}

// inflightMsg tracks one delivered-but-unacked message.
type inflightMsg struct {
	deliveries int           // times delivered so far (>= 1)
	due        time.Duration // when redelivery becomes eligible
}

// ConsumerConfig parameterizes a Consumer. The zero value of every
// optional field selects a sensible default.
type ConsumerConfig struct {
	// Name is the durable consumer identity (required): cursors are
	// checkpointed under it and a later Consumer call with the same name
	// resumes from its floor.
	Name string
	// StartSeq is where a consumer with no durable cursor begins
	// (replay-from-sequence for late joiners). 0 or 1 starts at the
	// stream's first retained message.
	StartSeq uint64
	// MaxInflight is the flow-control window: the number of unacked
	// deliveries the consumer may hold. Default 64.
	MaxInflight int
	// AckWait is the base redelivery deadline: a delivery unacked after
	// AckWait becomes eligible again, with the deadline doubling per
	// redelivery up to 8 x AckWait. Default 30s.
	AckWait time.Duration
}

// Errors returned by consumer operations.
var (
	// ErrConsumerClosed is returned by operations on a closed consumer.
	ErrConsumerClosed = errors.New("streams: consumer closed")
	// ErrNotInflight is returned by Ack/Nak for a sequence that is not
	// currently inflight (and, for Ack, not already acked).
	ErrNotInflight = errors.New("streams: sequence not inflight")
)

// Delivery is one fetched message.
type Delivery struct {
	Seq        uint64 // stream sequence (the Ack/Nak handle)
	Deliveries int    // 1 for a first delivery, 2+ for redeliveries
	Msg        Message
	// Batch is the sequence of the first message of the batch Msg was
	// appended with, or 0 when it was appended alone: deliveries sharing
	// a nonzero Batch were stored together.
	Batch uint64
	// Body is set by FetchBodies only, on the first delivery of a run
	// that is one whole stored batch: the version-2 body it rests as.
	Body []byte
}

// ConsumerStats is a point-in-time snapshot of one consumer.
type ConsumerStats struct {
	Name        string
	AckFloor    uint64 // every sequence <= this is settled
	Lag         uint64 // stream head minus floor: how far behind, right now
	LagPeak     uint64 // the deepest Lag any Fetch has faced since the last telemetry scrape
	Inflight    int    // delivered, unacked
	Delivered   uint64 // first deliveries
	Redelivered uint64 // deadline/Nak redeliveries
	Acked       uint64
	Naks        uint64
	Missed      uint64 // skipped, evicted by retention before delivery
	Closed      bool
}

// Consumer returns the named durable consumer, resuming from its
// checkpointed floor when one exists (cfg.StartSeq applies only to a
// brand-new cursor). Claiming a name that is already live replaces the
// previous instance — the modeling of a crashed consumer process whose
// successor reattaches — and the replaced instance is closed.
func (s *DurableStream) Consumer(cfg ConsumerConfig) (*Consumer, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("streams: consumer needs a name")
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 30 * time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.consumers[cfg.Name]; ok {
		old.closed = true
		s.waiters.Broadcast()
	}
	floor, resumed := s.floors[cfg.Name]
	if !resumed {
		if cfg.StartSeq > 0 {
			floor = cfg.StartSeq - 1
		}
		if floor > s.lastSeq {
			floor = s.lastSeq
		}
	}
	c := &Consumer{
		s:           s,
		name:        cfg.Name,
		maxInflight: cfg.MaxInflight,
		ackWait:     cfg.AckWait,
		floor:       floor,
		acked:       map[uint64]struct{}{},
		infl:        map[uint64]inflightMsg{},
		nextSeq:     floor + 1,
	}
	s.consumers[cfg.Name] = c
	s.floors[cfg.Name] = floor
	return c, nil
}

// Name returns the consumer's durable name.
func (c *Consumer) Name() string { return c.name }

// backoffFor returns the redelivery deadline for the nth delivery:
// AckWait doubled per prior delivery, capped at 8 x AckWait.
func (c *Consumer) backoffFor(deliveries int) time.Duration {
	return c.ackWait << min(deliveries-1, 3)
}

// Fetch returns up to max deliveries: first any inflight messages whose
// redelivery deadline has passed (oldest sequence first), then new
// messages while the inflight window has room. A message evicted by
// retention before delivery is settled in place — counted and skipped,
// cursor advanced — rather than delivered. Fetch never blocks; an empty
// result means nothing is currently deliverable.
func (c *Consumer) Fetch(max int) ([]Delivery, error) { return c.fetch(max, false) }

// FetchBodies is Fetch for a caller that forwards what the stream stored.
// A run of deliveries sharing a Batch that is one whole stored batch —
// every record of it, in order, as a round not cut by max, a trim or a
// partial ack holds it — comes back undecoded: its first delivery's Body
// is the batch's stored body and every Msg of the run is zero. Every
// other delivery is decoded as Fetch decodes it. The deliveries are valid
// until the next FetchBodies, which reuses their slice.
//
// Both read settled history, a late joiner's, back from the segment; a
// batch that cannot be read back is an error, never a miss, returned once
// no delivery precedes it.
func (c *Consumer) FetchBodies(max int) ([]Delivery, error) { return c.fetch(max, true) }

func (c *Consumer) fetch(max int, bodies bool) ([]Delivery, error) {
	if max <= 0 {
		return nil, fmt.Errorf("streams: fetch of %d messages", max)
	}
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return nil, ErrConsumerClosed
	}
	now := s.cfg.Clock()
	floorBefore := c.floor
	if lag := s.lastSeq - c.floor; lag > c.lagPeak {
		c.lagPeak = lag
	}
	var out []Delivery
	if bodies {
		out, c.bodySlots = c.bodyRound[:0], c.bodySlots[:0]
	}
	// deliver decodes sl, seq's slot, into out, or leaves that to the runs
	// below for FetchBodies; false means the message is gone (evicted by
	// retention) and the caller settles it as missed.
	deliver := func(seq uint64, sl *slot, deliveries int) bool {
		var m Message
		ok := sl != nil
		if ok && !bodies {
			m, ok = s.messageLocked(sl)
		}
		if ok {
			if out == nil { // sized once: everything due plus everything new, capped by max
				out = make([]Delivery, 0, min(max, len(c.infl)+int(s.lastSeq+1-c.nextSeq)+1))
			}
			out = append(out, Delivery{Seq: seq, Deliveries: deliveries, Msg: m, Batch: sl.ctx.batchSeq()})
			if bodies {
				c.bodySlots = append(c.bodySlots, *sl)
			}
		}
		return ok
	}
	var err error // a settled batch that could not be read back

	// Redeliveries first: an unacked message is older than anything new.
	// Map iteration order must not reach the caller — sort the due set.
	var due []uint64
	for seq, st := range c.infl {
		if st.due <= now {
			due = append(due, seq)
		}
	}
	sort.Slice(due, func(i, j int) bool { return due[i] < due[j] })
	for _, seq := range due {
		if len(out) >= max {
			break
		}
		var sl *slot
		if sl, err = s.slotAt(seq); err != nil {
			break
		}
		if st := c.infl[seq]; deliver(seq, sl, st.deliveries+1) {
			st.deliveries++
			st.due = now + c.backoffFor(st.deliveries)
			c.infl[seq] = st
			c.redelivered++
		} else {
			// Evicted by retention while inflight: it can never be
			// delivered again. Settle it so the cursor is not pinned.
			delete(c.infl, seq)
			c.missed++
			c.settleLocked(seq)
		}
	}

	// New messages, subject to the flow-control window.
	for err == nil && len(out) < max && len(c.infl) < c.maxInflight && c.nextSeq <= s.lastSeq {
		seq := c.nextSeq
		c.nextSeq++
		if seq <= c.floor {
			continue
		}
		if _, done := c.acked[seq]; done {
			continue
		}
		var sl *slot
		if sl, err = s.slotAt(seq); err != nil {
			c.nextSeq = seq
			break
		}
		if deliver(seq, sl, 1) {
			c.infl[seq] = inflightMsg{deliveries: 1, due: now + c.backoffFor(1)}
			c.delivered++
		} else {
			// Lagged past retention: the message is gone. Account it and
			// move on — a stuck cursor would be worse than a counted gap.
			c.missed++
			c.settleLocked(seq)
		}
	}
	if c.floor != floorBefore {
		c.checkpointLocked()
	}
	if bodies {
		c.bodiesLocked(out)
		c.bodyRound = out
	}
	if err != nil && len(out) == 0 {
		return nil, fmt.Errorf("streams: consumer %q: %w", c.name, err)
	}
	return out, nil
}

// bodiesLocked finishes a FetchBodies round (s.mu held). Deliveries are
// in ascending sequence order, so a run of n sharing one batch of n
// records is that whole batch, in order.
func (c *Consumer) bodiesLocked(out []Delivery) {
	for lo, hi := 0, 0; lo < len(out); lo = hi {
		k := c.bodySlots[lo].ctx
		for hi = lo + 1; hi < len(out) && out[hi].Batch == out[lo].Batch; hi++ {
		}
		if k.held.n == uint32(hi-lo) {
			out[lo].Body = k.body
			continue
		}
		for i := lo; i < hi; i++ {
			// Every retained slot decodes: its body walked cleanly once.
			out[i].Msg, _ = c.s.messageLocked(&c.bodySlots[i])
		}
	}
}

// Ack settles a delivered message. Acking at or below the floor is an
// idempotent no-op (the redelivered copy of an already-settled message);
// acking a sequence that was never delivered is ErrNotInflight.
func (c *Consumer) Ack(seq uint64) error {
	one := [1]Delivery{{Seq: seq}}
	return c.AckBatch(one[:])
}

// AckBatch settles a whole fetched round at once: every delivery is
// acked as Ack would ack it, the floor advances once, and one cursor
// checkpoint is written for the round instead of one per message. A
// delivery that is not inflight does not stop the others; the first such
// error is returned.
func (c *Consumer) AckBatch(ds []Delivery) error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return ErrConsumerClosed
	}
	floorBefore := c.floor
	var first error
	for i := range ds {
		seq := ds[i].Seq
		if seq <= c.floor {
			continue
		}
		if _, ok := c.acked[seq]; ok {
			continue
		}
		if _, ok := c.infl[seq]; !ok {
			if first == nil {
				first = fmt.Errorf("%w: ack %d (floor %d)", ErrNotInflight, seq, c.floor)
			}
			continue
		}
		delete(c.infl, seq)
		c.ackedCount++
		c.settleLocked(seq)
	}
	if c.floor != floorBefore {
		c.checkpointLocked()
	}
	return first
}

// Nak negatively acknowledges an inflight delivery: the message becomes
// immediately eligible for redelivery (its backoff restarts from the
// next attempt's deadline), without waiting out the ack deadline.
func (c *Consumer) Nak(seq uint64) error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return ErrConsumerClosed
	}
	st, ok := c.infl[seq]
	if !ok {
		return fmt.Errorf("%w: nak %d (floor %d)", ErrNotInflight, seq, c.floor)
	}
	st.due = now0(s)
	c.infl[seq] = st
	c.naks++
	s.waiters.Broadcast()
	return nil
}

// Redeliver makes every inflight delivery immediately eligible again,
// returning how many were rescheduled. It is the crash-recovery hook the
// topology control plane uses when a consumer's process restarts (or its
// children re-home): a dead process cannot ack the window it had open,
// and without this the backlog would sit out the full ack deadline before
// moving again. Redelivered messages count as redeliveries and keep
// their delivery counts — the floor, as always, never moves backward.
func (c *Consumer) Redeliver() int {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed {
		return 0
	}
	now := now0(s)
	n := 0
	for seq, st := range c.infl {
		if st.due > now {
			st.due = now
			c.infl[seq] = st
			n++
		}
	}
	s.waiters.Broadcast()
	return n
}

// Wait blocks until Fetch has something to do — n new messages the
// inflight window has room for (fewer when the room is smaller), or an inflight delivery whose redelivery deadline
// has passed — or until d has elapsed, whichever comes first; an idle
// consumer sleeps on the stream instead of polling it, and a partial
// round can linger to fill. It returns ErrConsumerClosed, at once or on
// wake-up, when the consumer is closed or replaced. Deadlines are
// measured on the stream's clock, so Wait belongs to real daemons whose
// clock is wall time; virtual-time harnesses keep calling the
// non-blocking Fetch from their own schedule.
func (c *Consumer) Wait(n int, d time.Duration) error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ready, due := c.readyLocked(n)
	if c.closed || ready || d <= 0 {
		return c.closedErrLocked()
	}
	if due > 0 && due < d {
		d = due
	}
	expired := false
	t := time.AfterFunc(d, func() { //lint:allow walltime Wait is the real daemons' blocking call; virtual-time harnesses poll Fetch and never reach it
		s.mu.Lock()
		expired = true
		s.waiters.Broadcast()
		s.mu.Unlock()
	})
	defer t.Stop()
	for !c.closed && !expired && !ready {
		s.waiters.Wait()
		ready, _ = c.readyLocked(n)
	}
	return c.closedErrLocked()
}

// readyLocked reports whether a Fetch now would deliver n new messages
// (or as many as the inflight window has room for) or settle anything
// and, when not, how long until the earliest inflight redelivery
// deadline (0 when nothing is inflight) (s.mu held).
func (c *Consumer) readyLocked(n int) (ready bool, due time.Duration) {
	s := c.s
	if room := c.maxInflight - len(c.infl); room > 0 && s.lastSeq+1-c.nextSeq >= uint64(min(n, room)) {
		return true, 0
	}
	now := s.cfg.Clock()
	for _, st := range c.infl {
		if st.due <= now {
			return true, 0
		}
		if w := st.due - now; due == 0 || w < due {
			due = w
		}
	}
	return false, due
}

func (c *Consumer) closedErrLocked() error {
	if c.closed {
		return ErrConsumerClosed
	}
	return nil
}

// now0 reads the stream clock (helper so Nak stays readable).
func now0(s *DurableStream) time.Duration { return s.cfg.Clock() }

// settleLocked marks seq settled (acked or skipped) and advances the
// floor over the contiguous settled prefix (s.mu held). The in-order
// case — seq is the floor's successor — never touches acked.
func (c *Consumer) settleLocked(seq uint64) {
	if seq != c.floor+1 {
		c.acked[seq] = struct{}{}
		return
	}
	c.floor++
	for len(c.acked) > 0 {
		if _, ok := c.acked[c.floor+1]; !ok {
			break
		}
		delete(c.acked, c.floor+1)
		c.floor++
	}
}

// checkpointLocked makes the floor durable (s.mu held). A failed
// checkpoint is counted, not fatal: the consumer keeps running and the
// worst a lost checkpoint costs is redelivery after a crash. Every batch
// all consumers have now settled leaves memory for settled history. A
// memory-only stream has nothing to write and releases instead.
func (c *Consumer) checkpointLocked() {
	s := c.s
	s.floors[c.name] = c.floor
	if s.store == nil {
		s.releaseLocked()
		return
	}
	if _, err := s.commitLocked(appendCursorEntry(s.frame.Begin(), c.name, c.floor)); err != nil {
		s.walErrs++
	}
	s.saved[c.name] = c.floor
	s.compactLocked()
}

// AckFloor returns the durable cursor: every sequence at or below it is
// settled.
func (c *Consumer) AckFloor() uint64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.floor
}

// Stats returns a snapshot of the consumer's counters.
func (c *Consumer) Stats() ConsumerStats {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.statsLocked()
}

func (c *Consumer) statsLocked() ConsumerStats {
	return ConsumerStats{
		Name:        c.name,
		AckFloor:    c.floor,
		Lag:         c.s.lastSeq - c.floor,
		LagPeak:     c.lagPeak,
		Inflight:    len(c.infl),
		Delivered:   c.delivered,
		Redelivered: c.redelivered,
		Acked:       c.ackedCount,
		Naks:        c.naks,
		Missed:      c.missed,
		Closed:      c.closed,
	}
}

// Close detaches the consumer instance. The durable cursor survives: a
// later Consumer call with the same name resumes from the floor.
func (c *Consumer) Close() {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.closed = true
	c.s.waiters.Broadcast()
}
