package event

import (
	"sync"
	"sync/atomic"
)

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
