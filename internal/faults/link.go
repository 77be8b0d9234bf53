package faults

import (
	"errors"
	"time"

	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

// LinkStats counts a fault-aware link's activity.
type LinkStats struct {
	Forwarded  uint64 // messages delivered (or scheduled for delivery)
	Dropped    uint64 // messages lost to partitions or stall overflow
	Recovered  uint64 // messages held during a stall/replay outage, delivered after
	Duplicated uint64 // tail messages re-delivered by a replay-outage heal
	Queued     int    // messages currently in the stall buffer
}

// Link is one fault-injectable hop of the simulated LDMS topology — a
// drop-in replacement for ldms.Relay that a Controller can partition,
// slow down or stall. In its default state it behaves exactly like Relay:
// forward every message after the hop latency.
type Link struct {
	e       *sim.Engine
	to      *ldms.Daemon
	tag     string
	latency time.Duration
	sub     *streams.Subscription

	// Fault state; mutated only in engine context, so no lock is needed
	// (the simulation runs one process or callback at a time).
	down     bool
	extra    time.Duration
	stalled  bool
	queue    []streams.Message
	maxQueue int

	// Replay-outage state: a link modeling an at-least-once transport
	// (ldms.Uplink) spools during the outage instead of
	// dropping, and on heal re-delivers the recent pre-outage tail — the
	// frames whose fate the sender could not know — before the spool.
	// ringCap is set by SetReplayTail; spooling marks a CutReplay outage.
	ringCap  int
	ring     []streams.Message
	spooling bool
	spool    []streams.Message

	st LinkStats
}

// DefaultStallQueue bounds the stall buffer: a slow subscriber holds at
// most this many messages before the link starts shedding, mirroring the
// bounded-memory stance of ldms.RateLimitedRelay.
const DefaultStallQueue = 4096

// NewLink wires a fault-aware relay hop from one daemon's bus to another.
func NewLink(e *sim.Engine, from, to *ldms.Daemon, tag string, latency time.Duration) *Link {
	l := &Link{e: e, to: to, tag: tag, latency: latency, maxQueue: DefaultStallQueue}
	l.sub = from.Bus().Subscribe(tag, l.handle)
	return l
}

func (l *Link) handle(m streams.Message) {
	switch {
	case l.down && l.spooling:
		if len(l.spool) >= l.maxQueue {
			l.st.Dropped++
			return
		}
		l.spool = append(l.spool, m)
	case l.down:
		l.st.Dropped++
	case l.stalled:
		if len(l.queue) >= l.maxQueue {
			l.st.Dropped++
			return
		}
		l.queue = append(l.queue, m)
	default:
		l.deliver(m)
	}
}

func (l *Link) deliver(m streams.Message) {
	l.st.Forwarded++
	if l.ringCap > 0 {
		l.ring = append(l.ring, m)
		if len(l.ring) > l.ringCap {
			l.ring = l.ring[1:]
		}
	}
	if d := l.latency + l.extra; d > 0 {
		l.e.After(d, func() { l.to.Bus().Publish(m) })
		return
	}
	l.to.Bus().Publish(m)
}

// Cut partitions the link: subsequent messages are dropped.
func (l *Link) Cut() { l.down = true }

// Restore heals a partition.
func (l *Link) Restore() { l.down = false }

// SetReplayTail makes the link model an at-least-once transport: the last
// n delivered messages are retained, and a CutReplay/RestoreReplay outage
// re-delivers them on heal (duplicates for a downstream dedup to absorb).
// n <= 0 turns the modeling off.
func (l *Link) SetReplayTail(n int) {
	if n <= 0 {
		l.ringCap = 0
		l.ring = nil
		return
	}
	l.ringCap = n
}

// CutReplay takes the link down like Cut, but as an at-least-once
// transport outage: messages spool (bounded by the stall queue limit)
// instead of dropping, awaiting the heal.
func (l *Link) CutReplay() {
	l.down = true
	l.spooling = true
}

// RestoreReplay heals a CutReplay outage: the pre-outage tail is
// re-delivered first (counted Duplicated — the sender cannot know those
// frames arrived), then the spooled messages (counted Recovered). Returns
// the two counts.
func (l *Link) RestoreReplay() (dup, recovered int) {
	l.down = false
	l.spooling = false
	tail := l.ring
	l.ring = nil // deliver() below re-fills the ring as it re-sends
	for _, m := range tail {
		l.st.Duplicated++
		l.deliver(m)
	}
	spool := l.spool
	l.spool = nil
	for _, m := range spool {
		l.st.Recovered++
		l.deliver(m)
	}
	return len(tail), len(spool)
}

// Down reports whether the link is currently partitioned.
func (l *Link) Down() bool { return l.down }

// SetExtraLatency adds d to every delivery (0 restores the base latency).
func (l *Link) SetExtraLatency(d time.Duration) { l.extra = d }

// Stall models a slow subscriber: messages queue in the bounded stall
// buffer instead of being delivered.
func (l *Link) Stall() { l.stalled = true }

// Unstall releases the stall: queued messages are delivered in order and
// counted as recovered. It returns how many were released.
func (l *Link) Unstall() int {
	l.stalled = false
	n := len(l.queue)
	for _, m := range l.queue {
		l.st.Recovered++
		l.deliver(m)
	}
	l.queue = nil
	return n
}

// Close detaches the link from the source bus.
func (l *Link) Close() { l.sub.Close() }

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats {
	st := l.st
	st.Queued = len(l.queue)
	return st
}

// CrashDaemon returns crash/restart hooks that cut and restore every given
// link — the topology-level effect of the daemon at their junction dying.
// Register the pair with Controller.RegisterCrash.
func CrashDaemon(links ...*Link) (crash, restart func()) {
	crash = func() {
		for _, l := range links {
			l.Cut()
		}
	}
	restart = func() {
		for _, l := range links {
			l.Restore()
		}
	}
	return crash, restart
}

// FlakyStore wraps an ldms.StorePlugin with deterministic transient
// failures: while active, each Store call fails with probability p drawn
// from its rng stream. Pair it with ldms.RetryStore to demonstrate the
// retried ingest path under an unreliable dsosd.
type FlakyStore struct {
	inner  ldms.StorePlugin
	r      *rng.Stream
	p      float64
	active bool
	failed uint64
}

// NewFlakyStore builds the wrapper; r drives the failure coin flips.
func NewFlakyStore(inner ldms.StorePlugin, r *rng.Stream, p float64) *FlakyStore {
	return &FlakyStore{inner: inner, r: r, p: p}
}

// SetActive turns the failure injection on or off (a Controller toggle).
func (f *FlakyStore) SetActive(active bool) { f.active = active }

// Failed returns how many Store calls were failed by injection.
func (f *FlakyStore) Failed() uint64 { return f.failed }

// Name implements ldms.StorePlugin.
func (f *FlakyStore) Name() string { return "flaky(" + f.inner.Name() + ")" }

// Store implements ldms.StorePlugin.
func (f *FlakyStore) Store(m streams.Message) error {
	if f.active && f.r.Bool(f.p) {
		f.failed++
		return errInjected
	}
	return f.inner.Store(m)
}

// errInjected is the error injected store failures return.
var errInjected = errors.New("faults: injected store failure")
