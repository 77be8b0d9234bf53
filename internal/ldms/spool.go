package ldms

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/streams"
)

// OverflowPolicy selects what a full spool does with new messages.
type OverflowPolicy int

// Overflow policies.
const (
	// DropOldest evicts the oldest spooled message (keep the freshest
	// data; the default — monitoring usually prefers recency).
	DropOldest OverflowPolicy = iota
	// DropNewest rejects the incoming message (keep the oldest data).
	DropNewest
	// Block makes Publish wait for spool space — backpressure onto the
	// publisher, trading memory safety for stalls.
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
	switch strings.TrimSpace(s) {
	case "drop-oldest", "":
		return DropOldest, nil
	case "drop-newest":
		return DropNewest, nil
	case "block":
		return Block, nil
	}
	return 0, fmt.Errorf("ldms: unknown overflow policy %q (want drop-oldest, drop-newest or block)", s)
}

// batchPool recycles the spool's round accumulators; its Get/Put counters
// back the pool-leak assertions in tests.
var batchPool event.BatchPool

// BatchPoolCounters exposes the round accumulator pool's Get/Put counts
// for leak assertions in tests.
func BatchPoolCounters() (gets, puts uint64) { return batchPool.Counters() }

// spool is the volatile source: a bounded in-memory queue fed by a bus
// subscription. It dies with the process (bounded memory, counted drops).
type spool struct {
	bus      *streams.Bus
	tag      string
	size     int
	overflow OverflowPolicy
	policy   event.FlushPolicy
	sub      *streams.Subscription

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []streams.Message
	round    *event.Batch // popped from the queue, not yet sent or dropped
	closed   bool
	enqueued uint64
	dropped  uint64
}

func newSpool(bus *streams.Bus, cfg UplinkConfig) *spool {
	s := &spool{bus: bus, tag: cfg.Tag, size: cfg.SpoolSize, overflow: cfg.Overflow, policy: cfg.Batch}
	s.cond = sync.NewCond(&s.mu)
	s.sub = bus.Subscribe(cfg.Tag, s.enqueue)
	return s
}

// enqueue is the bus handler: it spools the message for the delivery loop.
func (s *spool) enqueue(m streams.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropLocked(1)
		return
	}
	s.enqueued++
	if len(s.queue) >= s.size {
		switch s.overflow {
		case DropOldest:
			s.queue = s.queue[1:]
			s.dropLocked(1)
		case DropNewest:
			s.dropLocked(1)
			return
		case Block:
			for len(s.queue) >= s.size && !s.closed {
				s.cond.Wait()
			}
			if s.closed {
				s.dropLocked(1)
				return
			}
		}
	}
	// The spool outlives the publisher's synchronous hand-off, so a
	// slab-backed record must be detached here — its slab may be reset
	// the moment the bus fan-out returns. Heap records pass through
	// untouched (Detach is the identity for them).
	s.queue = append(s.queue, streams.Detach(m))
	s.cond.Broadcast()
}

// dropLocked counts lost messages here and on the bus (s.mu held).
func (s *spool) dropLocked(n int) {
	s.dropped += uint64(n)
	s.bus.NoteDrops(s.tag, uint64(n))
}

// take pops up to a round worth of spooled messages, blocking until at
// least one arrives or stop. With an age policy it then lingers up to
// MaxAge for the round to fill; without one it takes whatever is already
// queued (natural batching: depth under backpressure, latency near zero
// when idle). A round the link failed to send is handed back as-is.
func (s *spool) take() ([]streams.Message, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.round != nil {
		if !s.closed {
			return s.round.Messages(), true
		}
		s.dropLocked(s.round.Len())
		s.releaseLocked()
		return nil, false
	}
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return nil, false
	}
	b := batchPool.Get()
	s.round = b
	pop := func() bool {
		if len(s.queue) == 0 {
			return false
		}
		m := s.queue[0]
		s.queue = s.queue[1:]
		full := b.Add(m, time.Now(), s.policy)
		s.cond.Broadcast() // space freed for Block publishers
		return !full
	}
	for pop() {
	}
	if s.policy.MaxAge > 0 && !b.Full(s.policy) {
		// Linger for the round to fill. The timer broadcast wakes the
		// cond wait when the age budget runs out.
		expired := false
		t := time.AfterFunc(s.policy.MaxAge, func() {
			s.mu.Lock()
			expired = true
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		for !expired && !s.closed && !b.Full(s.policy) {
			if len(s.queue) == 0 {
				s.cond.Wait()
				continue
			}
			pop()
		}
		t.Stop()
	}
	return b.Messages(), true
}

func (s *spool) settle(sent bool) {
	if !sent {
		return // keep the round in hand: the next take retries it
	}
	s.mu.Lock()
	s.releaseLocked()
	s.mu.Unlock()
}

// releaseLocked returns the round in hand to the pool (s.mu held).
func (s *spool) releaseLocked() {
	batchPool.Put(s.round)
	s.round = nil
}

// stop detaches from the bus and counts what is still queued as dropped;
// the round in hand is dropped by the delivery loop's next take.
func (s *spool) stop() {
	s.mu.Lock()
	s.closed = true
	s.dropLocked(len(s.queue))
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.sub.Close()
}

func (s *spool) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && s.round == nil
}

func (s *spool) stats(st *UplinkStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Enqueued = s.enqueued
	st.Dropped = s.dropped
	st.SpoolCap = s.size
	st.SpoolDepth = len(s.queue)
	if s.round != nil {
		st.SpoolDepth += s.round.Len()
	}
}
