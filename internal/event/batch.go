package event

import (
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/streams"
)

// FlushPolicy says when an accumulating batch must be flushed. Zero
// fields disable the corresponding trigger; the zero policy means "flush
// every message immediately" (MaxRecords treated as 1), which is the
// legacy one-frame-per-message behavior.
type FlushPolicy struct {
	// MaxRecords flushes when the batch holds this many records.
	MaxRecords int
	// MaxBytes flushes when the accumulated payload size estimate
	// reaches this many bytes.
	MaxBytes int
	// MaxAge flushes when the oldest buffered record has waited this
	// long. The batch itself never reads a clock: the caller that owns
	// the round keeps the timer (ldms's spool), so the policy stays
	// deterministic under the simulator.
	MaxAge time.Duration
}

// Enabled reports whether the policy ever accumulates more than one
// record per flush.
func (p FlushPolicy) Enabled() bool {
	return p.MaxRecords > 1 || p.MaxBytes > 0 || p.MaxAge > 0
}

// Batch accumulates stream messages until a flush policy triggers. It is
// not safe for concurrent use; callers (forwarders) own one at a time,
// usually checked out of a BatchPool so the backing array is reused
// across flushes.
type Batch struct {
	msgs  []streams.Message
	bytes int
}

// Add appends m and reports whether a count/byte trigger says to flush.
func (b *Batch) Add(m streams.Message, p FlushPolicy) bool {
	b.msgs = append(b.msgs, m)
	b.bytes += sizeOf(m)
	return b.Full(p)
}

// Full reports whether the count or byte trigger has fired.
func (b *Batch) Full(p FlushPolicy) bool {
	max := p.MaxRecords
	if max <= 0 {
		max = 1
	}
	if len(b.msgs) >= max {
		return true
	}
	return p.MaxBytes > 0 && b.bytes >= p.MaxBytes
}

// Len returns the number of buffered records.
func (b *Batch) Len() int { return len(b.msgs) }

// Bytes returns the accumulated payload size estimate.
func (b *Batch) Bytes() int { return b.bytes }

// Messages returns the buffered records. The slice is invalidated by
// Reset (and by returning the batch to its pool).
func (b *Batch) Messages() []streams.Message { return b.msgs }

// Reset empties the batch, keeping the backing array for reuse. Slots
// are cleared so the pool does not pin records alive.
func (b *Batch) Reset() {
	for i := range b.msgs {
		b.msgs[i] = streams.Message{}
	}
	b.msgs = b.msgs[:0]
	b.bytes = 0
}

// sizeOf estimates a message's payload contribution without forcing an
// encode: literal bytes count as-is, an already-encoded record counts
// its cached payload, and an unencoded typed record counts a cheap
// field-size estimate (what its JSON would roughly cost).
func sizeOf(m streams.Message) int {
	if m.Data != nil {
		return len(m.Data)
	}
	r, ok := m.Record.(*Record)
	if !ok {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.payload != nil {
		return len(r.payload)
	}
	if r.msg != nil {
		return estimateSize(r.msg)
	}
	return 0
}

// estimateSize approximates the encoded size of a message: string fields
// plus a fixed budget per numeric field and segment scaffolding. It only
// steers the MaxBytes flush trigger, so rough is fine.
func estimateSize(m *jsonmsg.Message) int {
	n := 200 + len(m.Exe) + len(m.File) + len(m.ProducerName) + len(m.Module) + len(m.Type) + len(m.Op)
	for i := range m.Seg {
		n += 180 + len(m.Seg[i].DataSet)
	}
	return n
}

// BatchPool is an instrumented sync.Pool of Batches. The Get/Put
// counters exist for leak assertions: after a forwarder quiesces, every
// Get must be balanced by a Put or batch buffers are leaking.
type BatchPool struct {
	pool sync.Pool
	gets atomic.Uint64
	puts atomic.Uint64
}

// Get checks a reset batch out of the pool.
func (p *BatchPool) Get() *Batch {
	p.gets.Add(1)
	if b, ok := p.pool.Get().(*Batch); ok {
		return b
	}
	return &Batch{}
}

// Put resets b and returns it to the pool.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	b.Reset()
	p.puts.Add(1)
	p.pool.Put(b)
}

// Counters returns the running Get/Put counts.
func (p *BatchPool) Counters() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}

// BufferPool is an instrumented sync.Pool of byte buffers, used for
// batch frame scratch space so steady-state batching does not allocate
// per flush.
type BufferPool struct {
	pool sync.Pool
	gets atomic.Uint64
	puts atomic.Uint64
}

// Get checks an empty buffer out of the pool.
func (p *BufferPool) Get() []byte {
	p.gets.Add(1)
	if b, ok := p.pool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 4096)
}

// Put returns a buffer to the pool.
func (p *BufferPool) Put(b []byte) {
	if b == nil {
		return
	}
	p.puts.Add(1)
	p.pool.Put(&b)
}

// Counters returns the running Get/Put counts.
func (p *BufferPool) Counters() (gets, puts uint64) {
	return p.gets.Load(), p.puts.Load()
}
