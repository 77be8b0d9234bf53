package ldms

import (
	"fmt"
	"slices"
	"sort"
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
// bounded all the same: per producer the contiguous stored prefix
// 1..floor is one number, and the sequences stored above a gap are kept
// as runs of consecutive sequences, so a gap that never fills — a
// retention trim upstream — costs one run, not an entry per later event.
// The floor advances over sequences actually stored and never infers one.
type DedupStore struct {
	inner StorePlugin

	mu         sync.Mutex
	seen       map[string]*seenSeqs
	duplicates uint64
	stored     uint64
	unstamped  uint64

	// What keepLocked (bound once as keep) decided since the last settle;
	// it asks outer, the Keep of the run being stored, first.
	keep  func(streams.Message) bool
	outer func(streams.Message) bool
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
// [1, floor] plus the runs above it, sorted, disjoint and never adjacent
// to each other or to the floor.
type seenSeqs struct {
	floor uint64
	runs  []seqRun
}

// seqRun is the sequences lo through hi.
type seqRun struct{ lo, hi uint64 }

func (p *seenSeqs) has(seq uint64) bool {
	if p == nil {
		return false
	}
	if seq <= p.floor {
		return true
	}
	i := p.search(seq)
	return i < len(p.runs) && p.runs[i].lo <= seq
}

// search returns the first run that ends at or past seq.
func (p *seenSeqs) search(seq uint64) int {
	return sort.Search(len(p.runs), func(i int) bool { return p.runs[i].hi >= seq })
}

func (p *seenSeqs) add(seq uint64) {
	if seq == p.floor+1 {
		p.floor = seq
		if len(p.runs) > 0 && p.runs[0].lo == seq+1 {
			p.floor = p.runs[0].hi
			p.runs = slices.Delete(p.runs, 0, 1)
		}
		return
	}
	if seq <= p.floor {
		return
	}
	i := p.search(seq - 1) // the run seq would extend, or the first past it
	switch {
	case i == len(p.runs) || p.runs[i].lo > seq+1:
		p.runs = slices.Insert(p.runs, i, seqRun{seq, seq})
	case p.runs[i].lo == seq+1:
		p.runs[i].lo = seq
	case p.runs[i].hi+1 == seq: // extends run i, and may join it to the next
		p.runs[i].hi = seq
		if i+1 < len(p.runs) && p.runs[i+1].lo == seq+1 {
			p.runs[i].hi = p.runs[i+1].hi
			p.runs = slices.Delete(p.runs, i+1, i+2)
		}
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
// check — a StoreHandle serializes the chain anyway, so this costs
// nothing in the pipeline.
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
	s.outer, run.Keep = run.Keep, s.keep
	err := inner.StoreRound(run, token, dead)
	s.outer = nil
	if err != nil {
		return err
	}
	s.settleLocked()
	return nil
}

// keepLocked decides one record (s.mu held): m is fresh unless its
// identity is stored or already kept since the last settle.
func (s *DedupStore) keepLocked(m streams.Message) bool {
	if s.outer != nil && !s.outer(m) {
		return false
	}
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
