package ldms

import (
	"sync"

	"darshanldms/internal/streams"
)

// refSpool is the reference the memory-only stream replaced as the
// -reconnect uplink's source (spool_diff_test.go holds the two to each
// other): a bounded in-memory queue fed by a bus subscription, whose
// round in hand waits beside the bound until it is sent. It is the
// spool as it ran, less what the differential does not drive: the
// linger timer, the byte bound and the round pool.
type refSpool struct {
	bus      *streams.Bus
	tag      string
	size     int
	round    int
	overflow streams.OverflowPolicy
	sub      *streams.Subscription

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []streams.Message
	inHand  []streams.Message // popped from the queue, not yet sent or dropped
	closed  bool
	dropped uint64
}

func newRefSpool(bus *streams.Bus, tag string, size, round int, overflow streams.OverflowPolicy) *refSpool {
	s := &refSpool{bus: bus, tag: tag, size: size, round: round, overflow: overflow}
	s.cond = sync.NewCond(&s.mu)
	s.sub = bus.Subscribe(tag, s.enqueue)
	return s
}

// enqueue is the bus handler: it spools the message for the delivery loop.
func (s *refSpool) enqueue(m streams.Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.dropped++
		return
	}
	if len(s.queue) >= s.size {
		switch s.overflow {
		case streams.DropOldest:
			s.queue = s.queue[1:]
			s.dropped++
		case streams.DropNewest:
			s.dropped++
			return
		case streams.Block:
			for len(s.queue) >= s.size && !s.closed {
				s.cond.Wait()
			}
			if s.closed {
				s.dropped++
				return
			}
		}
	}
	s.queue = append(s.queue, m)
	s.cond.Broadcast()
}

// take pops up to a round of spooled messages, blocking until at least
// one arrives or stop; a round the link failed to send is handed back
// as it was.
func (s *refSpool) take() ([]streams.Message, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inHand != nil {
		return s.inHand, !s.closed
	}
	for len(s.queue) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.queue) == 0 {
		return nil, false
	}
	n := min(len(s.queue), s.round)
	s.inHand = append([]streams.Message(nil), s.queue[:n]...)
	s.queue = s.queue[n:]
	s.cond.Broadcast() // space freed for Block publishers
	return s.inHand, true
}

// settle releases the round in hand once sent; a failed one stays.
func (s *refSpool) settle(sent bool) {
	if sent {
		s.mu.Lock()
		s.inHand = nil
		s.mu.Unlock()
	}
}

// stop detaches from the bus and counts what is still queued as dropped.
func (s *refSpool) stop() {
	s.mu.Lock()
	s.closed = true
	s.dropped += uint64(len(s.queue))
	s.queue = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.sub.Close()
}

func (s *refSpool) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && s.inHand == nil
}
