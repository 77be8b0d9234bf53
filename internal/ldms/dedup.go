package ldms

import (
	"fmt"
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
	fresh      []streams.Message // StoreRound's reused survivors
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
	s.stampLocked(m)
	if !stamped(m) {
		s.unstamped++
		return s.inner.Store(m)
	}
	if s.seen[m.Producer].has(m.Seq) {
		s.duplicates++
		return nil
	}
	if err := s.inner.Store(m); err != nil {
		// Not marked seen: the retry that follows is a fresh attempt, not
		// a replay, and must reach the inner store again.
		return err
	}
	s.markLocked(m)
	return nil
}

// StoreRound implements RoundStore over an inner RoundStore: it drops the
// round's replays — identities already stored, and a second copy inside
// the round — and hands the rest to the inner store as one round. The
// identities are marked seen, and the counters move, only once that round
// has committed: a failed round is retried whole, and its retry is not a
// replay.
func (s *DedupStore) StoreRound(ms []streams.Message, token uint64, dead func(error)) error {
	inner, ok := s.inner.(RoundStore)
	if !ok {
		return fmt.Errorf("ldms: dedup over %s: it does not store rounds", s.inner.Name())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fresh := s.fresh[:0]
	dups := uint64(0)
	for _, m := range ms {
		s.stampLocked(m)
		if stamped(m) && (s.seen[m.Producer].has(m.Seq) || inRound(fresh, m)) {
			dups++
			continue
		}
		fresh = append(fresh, m)
	}
	s.fresh = fresh
	defer clear(fresh) // the round's records are the inner store's now
	if len(fresh) > 0 {
		if err := inner.StoreRound(fresh, token, dead); err != nil {
			return err
		}
	}
	s.duplicates += dups
	for _, m := range fresh {
		if stamped(m) {
			s.markLocked(m)
		} else {
			s.unstamped++
		}
	}
	return nil
}

// inRound reports whether round already holds m's identity.
func inRound(round []streams.Message, m streams.Message) bool {
	for i := range round {
		if round[i].Seq == m.Seq && round[i].Producer == m.Producer {
			return true
		}
	}
	return false
}

// stamped reports whether m carries a (producer, seq) identity.
func stamped(m streams.Message) bool { return m.Producer != "" && m.Seq != 0 }

func (s *DedupStore) stampLocked(m streams.Message) {
	if s.clock != nil {
		if st, ok := m.Record.(streams.Stamper); ok {
			st.Stamp(hopDedup, s.clock())
		}
	}
}

// markLocked records m's identity as stored.
func (s *DedupStore) markLocked(m streams.Message) {
	p := s.seen[m.Producer]
	if p == nil {
		p = &seenSeqs{}
		s.seen[m.Producer] = p
	}
	p.add(m.Seq)
	s.stored++
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
