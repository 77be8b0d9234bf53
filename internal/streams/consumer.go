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
//	  ▲                │  │                           (durable cursor)
//	  │   deadline/Nak │  │ MaxDeliver exceeded
//	  └────────────────┘  └──────▶ dead-lettered (counted, skipped)
//
// The acked floor — every sequence at or below it is acked, skipped or
// dead-lettered — is checkpointed to the stream's WAL segment whenever
// it advances, so a restarted consumer resumes exactly where its durable
// cursor left off. Messages acked out of order above the floor are
// remembered in memory only: after a crash they are redelivered, never
// skipped, keeping the contract at-least-once (pair the handler with an
// ldms.DedupStore for exactly-once effect). The floor is monotone by
// construction; it never moves backward, crash or no crash.
type Consumer struct {
	s           *DurableStream
	name        string
	filter      string
	maxInflight int
	ackWait     time.Duration
	backoffMax  time.Duration
	maxDeliver  int

	// All mutable state below is guarded by s.mu.
	floor   uint64
	acked   map[uint64]struct{} // acked/skipped above the floor
	infl    map[uint64]*inflightMsg
	nextSeq uint64 // next never-considered sequence
	lagPeak uint64 // deepest backlog any Fetch has faced since the last telemetry scrape
	closed  bool

	delivered    uint64
	redelivered  uint64
	ackedCount   uint64
	naks         uint64
	filtered     uint64 // skipped: subject outside the consumer's filter
	missed       uint64 // skipped: evicted by retention before delivery
	deadLettered uint64
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
	// Filter restricts delivery to matching subjects (wildcards
	// allowed); non-matching sequences are skipped and the cursor
	// advances over them. Default ">" (everything).
	Filter string
	// StartSeq is where a consumer with no durable cursor begins
	// (replay-from-sequence for late joiners). 0 or 1 starts at the
	// stream's first retained message.
	StartSeq uint64
	// MaxInflight is the flow-control window: the number of unacked
	// deliveries the consumer may hold. Default 64.
	MaxInflight int
	// AckWait is the base redelivery deadline: a delivery unacked after
	// AckWait becomes eligible again, with the deadline doubling per
	// redelivery up to BackoffMax. Default 30s.
	AckWait time.Duration
	// BackoffMax caps the exponential redelivery deadline. Default
	// 8 x AckWait.
	BackoffMax time.Duration
	// MaxDeliver, when positive, bounds deliveries per message: a
	// message exceeding it is dead-lettered (counted, cursor advances)
	// instead of redelivered forever. Default 0 (unlimited).
	MaxDeliver int
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
}

// ConsumerStats is a point-in-time snapshot of one consumer.
type ConsumerStats struct {
	Name         string
	Filter       string
	AckFloor     uint64 // every sequence <= this is settled
	Lag          uint64 // stream head minus floor: how far behind, right now
	LagPeak      uint64 // the deepest Lag any Fetch has faced since the last telemetry scrape
	Inflight     int    // delivered, unacked
	Delivered    uint64 // first deliveries
	Redelivered  uint64 // deadline/Nak redeliveries
	Acked        uint64
	Naks         uint64
	Filtered     uint64 // skipped, subject outside filter
	Missed       uint64 // skipped, evicted by retention before delivery
	DeadLettered uint64
	Closed       bool
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
	if cfg.Filter == "" {
		cfg.Filter = TailWildcard
	}
	if !ValidFilter(cfg.Filter) {
		return nil, fmt.Errorf("streams: consumer %q: invalid filter %q", cfg.Name, cfg.Filter)
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.AckWait <= 0 {
		cfg.AckWait = 30 * time.Second
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 8 * cfg.AckWait
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
		filter:      cfg.Filter,
		maxInflight: cfg.MaxInflight,
		ackWait:     cfg.AckWait,
		backoffMax:  cfg.BackoffMax,
		maxDeliver:  cfg.MaxDeliver,
		floor:       floor,
		acked:       map[uint64]struct{}{},
		infl:        map[uint64]*inflightMsg{},
		nextSeq:     floor + 1,
	}
	s.consumers[cfg.Name] = c
	s.floors[cfg.Name] = floor
	return c, nil
}

// Name returns the consumer's durable name.
func (c *Consumer) Name() string { return c.name }

// backoffFor returns the redelivery deadline for the nth delivery:
// AckWait doubled per prior delivery, capped at BackoffMax.
func (c *Consumer) backoffFor(deliveries int) time.Duration {
	d := c.ackWait
	for i := 1; i < deliveries; i++ {
		d *= 2
		if d >= c.backoffMax {
			return c.backoffMax
		}
	}
	if d > c.backoffMax {
		d = c.backoffMax
	}
	return d
}

// Fetch returns up to max deliveries: first any inflight messages whose
// redelivery deadline has passed (oldest sequence first), then new
// messages while the inflight window has room. A message outside the
// consumer's subject filter, evicted by retention before delivery, or
// past MaxDeliver is settled in place — counted and skipped, cursor
// advanced — rather than delivered. Fetch never blocks; an empty result
// means nothing is currently deliverable.
func (c *Consumer) Fetch(max int) ([]Delivery, error) {
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
	// deliver decodes seq's slot into out; false means the message is gone
	// (evicted by retention) and the caller settles it as missed.
	deliver := func(seq uint64, deliveries int) bool {
		m, ok := s.messageLocked(s.slotAt(seq))
		if ok {
			if out == nil { // sized once: everything due plus everything new, capped by max
				out = make([]Delivery, 0, min(max, len(c.infl)+int(s.lastSeq+1-c.nextSeq)+1))
			}
			out = append(out, Delivery{Seq: seq, Deliveries: deliveries, Msg: m})
		}
		return ok
	}

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
		st := c.infl[seq]
		switch {
		case c.maxDeliver > 0 && st.deliveries >= c.maxDeliver && s.slotAt(seq) != nil:
			delete(c.infl, seq)
			c.deadLettered++
			c.settleLocked(seq)
		case deliver(seq, st.deliveries+1):
			st.deliveries++
			st.due = now + c.backoffFor(st.deliveries)
			c.redelivered++
		default:
			// Evicted by retention while inflight: it can never be
			// delivered again. Settle it so the cursor is not pinned.
			delete(c.infl, seq)
			c.missed++
			c.settleLocked(seq)
		}
	}

	// New messages, subject to the flow-control window.
	for len(out) < max && len(c.infl) < c.maxInflight && c.nextSeq <= s.lastSeq {
		seq := c.nextSeq
		c.nextSeq++
		if seq <= c.floor {
			continue
		}
		if _, done := c.acked[seq]; done {
			continue
		}
		sl := s.slotAt(seq)
		switch {
		case sl != nil && !MatchSubject(c.filter, sl.subject):
			c.filtered++
			c.settleLocked(seq)
		case deliver(seq, 1):
			c.infl[seq] = &inflightMsg{deliveries: 1, due: now + c.backoffFor(1)}
			c.delivered++
		default:
			// Lagged past retention: the message is gone. Account it and
			// move on — a stuck cursor would be worse than a counted gap.
			c.missed++
			c.settleLocked(seq)
		}
	}
	if c.floor != floorBefore {
		c.checkpointLocked()
	}
	return out, nil
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
	for _, st := range c.infl {
		if st.due > now {
			st.due = now
			n++
		}
	}
	s.waiters.Broadcast()
	return n
}

// Wait blocks until Fetch has something to do — a new message the
// inflight window has room for, or an inflight delivery whose redelivery
// deadline has passed — or until d has elapsed, whichever comes first; an
// idle consumer sleeps on the stream instead of polling it. It returns
// ErrConsumerClosed, at once or on wake-up, when the consumer is closed
// or replaced. Deadlines are measured on the stream's clock, so Wait
// belongs to real daemons whose clock is wall time; virtual-time
// harnesses keep calling the non-blocking Fetch from their own schedule.
func (c *Consumer) Wait(d time.Duration) error {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	ready, due := c.readyLocked()
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
		ready, _ = c.readyLocked()
	}
	return c.closedErrLocked()
}

// readyLocked reports whether a Fetch now would deliver or settle
// anything and, when not, how long until the earliest inflight
// redelivery deadline (0 when nothing is inflight) (s.mu held).
func (c *Consumer) readyLocked() (ready bool, due time.Duration) {
	s := c.s
	if c.nextSeq <= s.lastSeq && len(c.infl) < c.maxInflight {
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

// settleLocked marks seq settled (acked, skipped or dead-lettered) and
// advances the floor over the contiguous settled prefix (s.mu held).
func (c *Consumer) settleLocked(seq uint64) {
	c.acked[seq] = struct{}{}
	for {
		if _, ok := c.acked[c.floor+1]; !ok {
			break
		}
		delete(c.acked, c.floor+1)
		c.floor++
	}
}

// checkpointLocked makes the floor durable (s.mu held). A failed
// checkpoint is counted, not fatal: the consumer keeps running and the
// worst a lost checkpoint costs is redelivery after a crash.
func (c *Consumer) checkpointLocked() {
	s := c.s
	if err := s.frame.Commit(s.store, appendCursorEntry(s.frame.Begin(), c.name, c.floor)); err != nil {
		s.walErrs++
	}
	s.floors[c.name] = c.floor
}

// AckFloor returns the durable cursor: every sequence at or below it is
// settled.
func (c *Consumer) AckFloor() uint64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.floor
}

// Pending returns how many retained sequences are still ahead of the
// consumer (inflight included) — the catch-up distance.
func (c *Consumer) Pending() uint64 {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.s.lastSeq - c.floor
}

// Stats returns a snapshot of the consumer's counters.
func (c *Consumer) Stats() ConsumerStats {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	return c.statsLocked()
}

func (c *Consumer) statsLocked() ConsumerStats {
	return ConsumerStats{
		Name:         c.name,
		Filter:       c.filter,
		AckFloor:     c.floor,
		Lag:          c.s.lastSeq - c.floor,
		LagPeak:      c.lagPeak,
		Inflight:     len(c.infl),
		Delivered:    c.delivered,
		Redelivered:  c.redelivered,
		Acked:        c.ackedCount,
		Naks:         c.naks,
		Filtered:     c.filtered,
		Missed:       c.missed,
		DeadLettered: c.deadLettered,
		Closed:       c.closed,
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
