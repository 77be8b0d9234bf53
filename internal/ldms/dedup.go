package ldms

import (
	"sync"

	"darshanldms/internal/obs"
	"darshanldms/internal/streams"
)

// DedupStore makes an at-least-once ingest path exactly-once: the
// connector stamps every message with a (producer, seq) identity, and this
// wrapper drops any identity it has already stored. Reconnect replays
// (an Uplink re-sending its tail, ReplayLast) and fault-link spool replays
// then become idempotent instead of double-inserting.
//
// A duplicate is acked (Store returns nil) without reaching the inner
// plugin — the original delivery already stored it. Unstamped messages
// (no producer or seq) pass through untouched, preserving the default
// pipeline's behavior bit-for-bit.
//
// The identity rides out-of-band on the streams message, so dedup never
// touches the payload: typed records pass through without being encoded
// or parsed, and a batch-frame replay dedups per record exactly like the
// legacy frame-per-message replay.
//
// The identity is remembered exactly, not as a high-water mark: latency
// spikes can reorder fresh messages across hops, and a high-water mark
// would misclassify a late-but-new message as a replay. Memory stays
// bounded for the common in-order stream all the same: per producer the
// contiguous stored prefix 1..floor is one number, and only sequences
// stored above a gap sit in a set (the shape streams.Consumer uses for
// its ack floor). The floor advances over sequences actually stored and
// never infers one: a gap pins it, and the set grows until the gap fills.
type DedupStore struct {
	inner StorePlugin

	mu         sync.Mutex
	seen       map[string]*seenSeqs
	duplicates uint64
	stored     uint64
	unstamped  uint64
	clock      obs.Clock // set by Instrument: stamps the "dedup" trace hop
}

// seenSeqs is one producer's stored identities: every sequence in
// [1, floor] plus the sparse set above it.
type seenSeqs struct {
	floor uint64
	above map[uint64]struct{}
}

func (p *seenSeqs) has(seq uint64) bool {
	if p == nil {
		return false
	}
	if seq <= p.floor {
		return true
	}
	_, ok := p.above[seq]
	return ok
}

func (p *seenSeqs) add(seq uint64) {
	if seq != p.floor+1 {
		if p.above == nil {
			p.above = map[uint64]struct{}{}
		}
		p.above[seq] = struct{}{}
		return
	}
	p.floor = seq
	for len(p.above) > 0 {
		if _, ok := p.above[p.floor+1]; !ok {
			break
		}
		delete(p.above, p.floor+1)
		p.floor++
	}
}

// hopDedup names the dedup stage in record traces.
const hopDedup = "dedup"

// NewDedupStore wraps inner with (producer, seq) deduplication.
func NewDedupStore(inner StorePlugin) *DedupStore {
	return &DedupStore{inner: inner, seen: map[string]*seenSeqs{}}
}

// Name implements StorePlugin.
func (s *DedupStore) Name() string { return "dedup(" + s.inner.Name() + ")" }

// Store implements StorePlugin. The lock is held across the inner call so
// two concurrent deliveries of the same identity cannot both pass the
// check — the store chain is serialized by AttachStore anyway, so this
// costs nothing in the pipeline.
func (s *DedupStore) Store(m streams.Message) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.clock != nil {
		if st, ok := m.Record.(streams.Stamper); ok {
			st.Stamp(hopDedup, s.clock())
		}
	}
	if m.Producer == "" || m.Seq == 0 {
		s.unstamped++
		return s.inner.Store(m)
	}
	p := s.seen[m.Producer]
	if p.has(m.Seq) {
		s.duplicates++
		return nil
	}
	if err := s.inner.Store(m); err != nil {
		// Not marked seen: the retry that follows is a fresh attempt, not
		// a replay, and must reach the inner store again.
		return err
	}
	if p == nil {
		p = &seenSeqs{}
		s.seen[m.Producer] = p
	}
	p.add(m.Seq)
	s.stored++
	return nil
}

// Duplicates returns how many stamped messages were suppressed as
// replays.
func (s *DedupStore) Duplicates() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.duplicates
}

// Stored returns how many stamped messages reached the inner store.
func (s *DedupStore) Stored() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stored
}

// Unstamped returns how many messages passed through without an identity.
func (s *DedupStore) Unstamped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unstamped
}

// Seen reports whether the identity has been stored already.
func (s *DedupStore) Seen(producer string, seq uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen[producer].has(seq)
}
