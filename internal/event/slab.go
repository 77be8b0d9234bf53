package event

import (
	"sync"
	"sync/atomic"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// The slab layer is the receive-side arena of the batched wire path: one
// Slab owns every per-record allocation a decoded batch frame needs —
// jsonmsg.Message structs, Segment arrays, Record wrappers and the
// streams.Message out-slice — so steady-state decode performs zero
// per-record heap allocations. Slabs are ref-counted: the decoder hands
// the batch to its consumers with one reference held; a consumer that
// must keep a record beyond the hand-off either takes its own reference
// (Retain/Release, scoped sharing) or detaches an owned copy
// (Record.DetachCarrier via streams.Detach, indefinite retention — the
// uplink spool and any other queueing boundary use this). When the
// last reference drops, the slab resets and returns to its pool; memory
// is reused for the next frame.
//
// Ownership rules (see DESIGN.md "Wire path & memory discipline"):
//
//   - slab memory is valid only while the slab is retained;
//   - strings decoded through an Interner are ordinary heap strings and
//     stay valid forever — only the structs and slices are slab-owned;
//   - synchronous consumers (bus handlers, stores) need nothing special;
//   - a consumer that queues the message (spool, channel, field) must
//     call streams.Detach first — a detached record is self-owned.

// arenaChunk is the default element count of one arena chunk. Batches are
// bounded by the frame size, so a few chunks cover any frame; chunks are
// retained across resets, which is the whole point.
const arenaChunk = 512

// arena is a grow-only chunked allocator. take returns a capacity-capped
// window so appends cannot clobber a neighbor; reset clears used memory
// (dropping string references) and rewinds, keeping the chunks.
type arena[T any] struct {
	chunks [][]T
	ci     int // active chunk index
	off    int // elements used in the active chunk
}

func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for {
		if a.ci < len(a.chunks) {
			c := a.chunks[a.ci]
			if a.off+n <= len(c) {
				s := c[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			// Tail of this chunk is too small; leave the gap and move on.
			a.ci++
			a.off = 0
			continue
		}
		size := arenaChunk
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]T, size))
		a.off = 0
	}
}

// reset rewinds without clearing: every consumer of arena memory fully
// initializes what it takes (decodeInto assigns every message field,
// Wrap every record field, append overwrites before extending length),
// so stale contents are never observed. The cost is bounded retention —
// a pooled slab keeps references to at most one frame's worth of decoded
// data until the memory is overwritten by the next frame — in exchange
// for dropping the per-flush memclr from the hot path.
func (a *arena[T]) reset() {
	a.ci, a.off = 0, 0
}

// maxInterned bounds an Interner's table. When the table is full, new
// strings are still returned (as fresh copies) but no longer remembered,
// so a hostile stream of unique strings cannot grow the table without
// bound; the repetitive fields of a real telemetry stream (producer,
// file, module, op names) intern within the first few frames.
const maxInterned = 1 << 15

// Interner deduplicates decoded strings so the steady-state wire path
// stops allocating them: the Table I string fields repeat heavily
// (producers, files, modules, ops), and a hit costs no allocation at
// all. Interned strings are ordinary heap strings — they outlive every
// slab and may be shared freely. An Interner is NOT safe for concurrent
// use; keep one per connection/decoder.
//
// Lookups go through a small direct-mapped front cache before the map:
// the hot fields of a telemetry stream take a handful of distinct
// values, so nearly every Intern call resolves with one index and one
// byte comparison instead of a map probe.
type Interner struct {
	front [1 << 8]string
	m     map[string]string
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{m: make(map[string]string, 256)}
}

// frontSlot is the direct-mapped cache index for b: length and boundary
// bytes, which differ for almost any two distinct field values.
func frontSlot(b []byte) uint {
	return (uint(len(b))*131 + uint(b[0])*31 + uint(b[len(b)-1])) & (1<<8 - 1)
}

// Intern returns a string equal to b, reusing a previously returned
// string when the content was seen before. The `m[string(b)]` lookup
// compiles without an allocation; only a first-seen string is copied.
func (in *Interner) Intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	slot := frontSlot(b)
	if s := in.front[slot]; s == string(b) { // compiles to a compare, no alloc
		return s
	}
	if s, ok := in.m[string(b)]; ok {
		in.front[slot] = s
		return s
	}
	s := string(b)
	if len(in.m) < maxInterned {
		in.m[s] = s
		in.front[slot] = s
	}
	return s
}

// Len returns the number of remembered strings.
func (in *Interner) Len() int { return len(in.m) }

// Slab is one pooled decode arena with an explicit ref-counted lifecycle.
// The zero Slab is usable (it just never returns to a pool); SlabPool.Get
// is the normal way to obtain one, holding one reference for the caller.
type Slab struct {
	pool *SlabPool
	refs atomic.Int32

	msgs arena[jsonmsg.Message]
	segs arena[jsonmsg.Segment]
	recs arena[Record]
	outs arena[streams.Message]
}

// Msg allocates one zeroed message from the slab.
func (s *Slab) Msg() *jsonmsg.Message {
	return &s.msgs.take(1)[0]
}

// Segments allocates a zeroed, capacity-capped segment slice of length n.
func (s *Slab) Segments(n int) []jsonmsg.Segment {
	return s.segs.take(n)
}

// Out allocates a zero-length streams.Message slice with capacity n (the
// decoded batch's out-slice).
func (s *Slab) Out(n int) []streams.Message {
	return s.outs.take(n)[:0]
}

// Wrap allocates a slab-owned typed-first Record around msg. The record
// is valid while the slab is retained; queueing consumers must detach it
// (streams.Detach) first. Every field is assigned — arena memory is
// reused without clearing, so a stale field from the slab's previous
// life must never survive.
func (s *Slab) Wrap(msg *jsonmsg.Message, codec jsonmsg.Encoder) *Record {
	r := &s.recs.take(1)[0]
	r.msg = msg
	r.codec = codec
	r.slab = s
	r.payload = nil
	r.err = nil
	r.counter = nil
	r.spans = nil
	return r
}

// Retain takes an additional reference. It panics if the slab is not
// currently retained — retaining released memory is a use-after-free.
func (s *Slab) Retain() {
	if s.refs.Add(1) <= 1 {
		panic("event: Retain of a released slab")
	}
}

// Release drops one reference. When the last reference drops the slab
// resets (clearing every record decoded into it) and returns to its
// pool. Releasing more times than retained panics.
func (s *Slab) Release() {
	n := s.refs.Add(-1)
	if n < 0 {
		panic("event: Release of a released slab")
	}
	if n > 0 {
		return
	}
	s.msgs.reset()
	s.segs.reset()
	s.recs.reset()
	s.outs.reset()
	if s.pool != nil {
		s.pool.put(s)
	}
}

// Retained reports whether the slab currently holds any references.
func (s *Slab) Retained() bool { return s.refs.Load() > 0 }

// SlabPool is an instrumented pool of decode slabs, the sibling of
// BatchPool/BufferPool. Get checks a slab out with one reference held;
// the slab returns itself via Release — there is no Put to forget, but
// the Get/Release pairing is still an obligation (dlc-lint's poolleak
// check accepts Release as the discharge).
type SlabPool struct {
	pool sync.Pool
	gets atomic.Uint64
	puts atomic.Uint64
}

// Get checks a reset slab out of the pool with refs=1.
func (p *SlabPool) Get() *Slab {
	p.gets.Add(1)
	s, ok := p.pool.Get().(*Slab)
	if !ok {
		s = &Slab{}
	}
	s.pool = p
	s.refs.Store(1)
	return s
}

// put returns a fully released slab to the pool (called by Release).
func (p *SlabPool) put(s *Slab) {
	p.puts.Add(1)
	p.pool.Put(s)
}

// Counters returns the running Get/return counts. After a pipeline
// quiesces every Get must be balanced by a final Release or slabs (and
// their arenas) are leaking.
func (p *SlabPool) Counters() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}
