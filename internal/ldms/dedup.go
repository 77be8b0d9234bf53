package ldms

import (
	"fmt"
	"slices"
	"sync"

	"darshanldms/internal/streams"
)

// DedupStore makes an at-least-once ingest path exactly-once: the
// connector stamps every message with a (producer, seq) identity, and this
// wrapper drops any identity it has already stored. Redeliveries (a
// durable cursor resumed after a crash re-sending what it had not acked)
// and fault-link spool replays then become idempotent instead of
// double-inserting.
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

	// What keepLocked (bound once as keep) decided since the last settle.
	keep  func(streams.Message) bool
	fresh []identity
	dups  uint64
	plain uint64
}

// identity is a message's (producer, seq).
type identity struct {
	producer string
	seq      uint64
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

// NewDedupStore wraps inner with (producer, seq) deduplication.
func NewDedupStore(inner StorePlugin) *DedupStore {
	s := &DedupStore{inner: inner, seen: map[string]*seenSeqs{}}
	s.keep = s.keepLocked
	return s
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
	s.fresh, s.dups, s.plain = s.fresh[:0], 0, 0
	if s.keepLocked(m) {
		if err := s.inner.Store(m); err != nil {
			// Not marked seen: the retry that follows is a fresh attempt, not
			// a replay, and must reach the inner store again.
			return err
		}
	}
	s.settleLocked()
	return nil
}

// StoreRound implements RoundStore over an inner RoundStore: it hands the
// run down with a Keep that drops the run's replays — identities already
// stored, and a second copy inside the run — as the inner store reaches
// them, envelope by envelope, so a run stored as a body is deduplicated
// without a walk of its own. The identities are marked seen, and the
// counters move, only once the run has committed: a failed run is
// retried whole, and its retry is not a replay.
func (s *DedupStore) StoreRound(run Run, token uint64, dead func(error)) error {
	inner, ok := s.inner.(RoundStore)
	if !ok {
		return fmt.Errorf("ldms: dedup over %s: it does not store rounds", s.inner.Name())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fresh, s.dups, s.plain = s.fresh[:0], 0, 0
	run.Keep = s.keep
	if err := inner.StoreRound(run, token, dead); err != nil {
		return err
	}
	s.settleLocked()
	return nil
}

// keepLocked decides one record (s.mu held): m is fresh unless its
// identity is stored or already kept since the last settle.
func (s *DedupStore) keepLocked(m streams.Message) bool {
	id := identity{m.Producer, m.Seq}
	switch {
	case !stamped(m):
		s.plain++
	case s.seen[m.Producer].has(m.Seq) || slices.Contains(s.fresh, id):
		s.dups++
		return false
	default:
		s.fresh = append(s.fresh, id)
	}
	return true
}

// settleLocked books what keepLocked decided, now that what it kept is
// stored: the counters move and the identities kept are marked seen.
func (s *DedupStore) settleLocked() {
	s.duplicates += s.dups
	s.unstamped += s.plain
	for _, id := range s.fresh {
		p := s.seen[id.producer]
		if p == nil {
			p = &seenSeqs{}
			s.seen[id.producer] = p
		}
		p.add(id.seq)
		s.stored++
	}
}

// stamped reports whether m carries a (producer, seq) identity.
func stamped(m streams.Message) bool { return m.Producer != "" && m.Seq != 0 }

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
