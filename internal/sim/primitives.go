package sim

import "time"

// Resource is a capacity-limited server with strict FIFO queueing. It models
// contended hardware: an NFS server's I/O capacity, a Lustre OST, a node's
// CPU cores. Acquire blocks the calling process until n units are available
// and every earlier waiter has been served (no overtaking, so small requests
// cannot starve large ones).
type Resource struct {
	Name     string
	e        *Engine
	capacity int
	inUse    int
	waiters  []*resWaiter
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource creates a resource with the given capacity (units are
// whatever the caller decides: cores, concurrent RPCs, stripe slots).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{Name: name, e: e, capacity: capacity}
}

// Acquire obtains n units, blocking p until they are available.
// It panics if n exceeds the total capacity (the request could never be
// satisfied).
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 {
		return
	}
	if n > r.capacity {
		panic("sim: acquire exceeds resource capacity: " + r.Name)
	}
	if len(r.waiters) == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	w := &resWaiter{p: p, n: n}
	r.waiters = append(r.waiters, w)
	p.granted = false
	for !p.granted {
		p.Block("resource " + r.Name)
	}
}

// Release returns n units and grants queued waiters in FIFO order.
// It may be called from any process or from engine context.
func (r *Resource) Release(n int) {
	if n <= 0 {
		return
	}
	r.inUse -= n
	if r.inUse < 0 {
		panic("sim: resource over-released: " + r.Name)
	}
	for len(r.waiters) > 0 {
		w := r.waiters[0]
		if r.inUse+w.n > r.capacity {
			break
		}
		r.waiters = r.waiters[1:]
		r.inUse += w.n
		w.p.granted = true
		r.e.Wake(w.p)
	}
}

// Use acquires n units, sleeps for d of service time, then releases.
// It is the common pattern for charging work against contended hardware.
func (r *Resource) Use(p *Proc, n int, d time.Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// Barrier is a reusable synchronization barrier for a fixed party count,
// used to model MPI_Barrier and the synchronization phases of collective
// I/O.
type Barrier struct {
	Name    string
	e       *Engine
	parties int
	arrived int
	waiting []*Proc
}

// NewBarrier creates a barrier for the given number of parties.
func NewBarrier(e *Engine, name string, parties int) *Barrier {
	if parties <= 0 {
		panic("sim: barrier parties must be positive")
	}
	return &Barrier{Name: name, e: e, parties: parties}
}

// Wait blocks p until all parties have arrived. The barrier then resets and
// can be reused for the next round.
func (b *Barrier) Wait(p *Proc) {
	b.arrived++
	if b.arrived == b.parties {
		b.arrived = 0
		for _, w := range b.waiting {
			w.granted = true
			b.e.Wake(w)
		}
		b.waiting = b.waiting[:0]
		return
	}
	b.waiting = append(b.waiting, p)
	p.granted = false
	for !p.granted {
		p.Block("barrier " + b.Name)
	}
}

// Mailbox is an unbounded FIFO message queue with optional delivery latency,
// modelling a network endpoint. Senders never block; receivers block until
// a message is available. Delivery order is deterministic: messages become
// visible in (arrival time, send sequence) order.
type Mailbox struct {
	Name      string
	e         *Engine
	q         []any
	recvQueue []*Proc
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Engine, name string) *Mailbox {
	return &Mailbox{Name: name, e: e}
}

// Len returns the number of queued (already delivered) messages.
func (m *Mailbox) Len() int { return len(m.q) }

// Send makes v available to receivers immediately.
// It may be called from engine context or any process.
func (m *Mailbox) Send(v any) {
	if len(m.recvQueue) > 0 {
		p := m.recvQueue[0]
		m.recvQueue = m.recvQueue[1:]
		p.handoff = v
		p.granted = true
		m.e.Wake(p)
		return
	}
	m.q = append(m.q, v)
}

// Recv blocks p until a message is available and returns it.
func (m *Mailbox) Recv(p *Proc) any {
	if len(m.q) > 0 {
		v := m.q[0]
		m.q = m.q[1:]
		return v
	}
	m.recvQueue = append(m.recvQueue, p)
	p.granted = false
	for !p.granted {
		p.Block("mailbox " + m.Name)
	}
	v := p.handoff
	p.handoff = nil
	return v
}

// WaitGroup lets a process wait for a set of other activities to complete,
// mirroring sync.WaitGroup in virtual time.
type WaitGroup struct {
	e       *Engine
	count   int
	waiting []*Proc
}

// NewWaitGroup creates a wait group.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add increments the counter by n.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter, waking waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.count == 0 {
		for _, p := range w.waiting {
			p.granted = true
			w.e.Wake(p)
		}
		w.waiting = w.waiting[:0]
	}
}

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.waiting = append(w.waiting, p)
	p.granted = false
	for !p.granted {
		p.Block("waitgroup")
	}
}
