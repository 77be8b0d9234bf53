// Package lockheld is a known-bad fixture for the lockheld check.
package lockheld

import "sync"

type counter struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

// NoUnlock never releases the mutex.
func (c *counter) NoUnlock() {
	c.mu.Lock() // want lockheld
	c.n++
}

// EarlyReturn leaks the lock on the error path.
func (c *counter) EarlyReturn(fail bool) int {
	c.mu.Lock()
	if fail {
		return -1 // want lockheld
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// ReadNoUnlock: RLock needs RUnlock, not Unlock.
func (c *counter) ReadNoUnlock() int {
	c.rw.RLock() // want lockheld
	return c.n
}

// GoodDefer is the canonical pattern.
func (c *counter) GoodDefer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// GoodManual unlocks on every path by hand.
func (c *counter) GoodManual(fail bool) int {
	c.mu.Lock()
	if fail {
		c.mu.Unlock()
		return -1
	}
	n := c.n
	c.mu.Unlock()
	return n
}

// Mailbox mimics a sim primitive: Recv parks the process in virtual time.
type Mailbox struct{}

// Recv blocks in virtual time.
func (m *Mailbox) Recv() any { return nil }

// BlockingHeld parks on a sim primitive while holding the lock: in the DES
// this deadlocks the event loop, not just this goroutine.
func (c *counter) BlockingHeld(mb *Mailbox) {
	c.mu.Lock()
	_ = mb.Recv() // want lockheld
	c.mu.Unlock()
}

// Consumer mimics streams.Consumer: Wait parks the caller until the
// stream has something to deliver.
type Consumer struct{}

// Wait blocks until an append, a redelivery deadline or Close.
func (c *Consumer) Wait(ms int) error { return nil }

// WaitHeld sleeps on the stream with the lock held: nobody else gets the
// lock until something is appended.
func (c *counter) WaitHeld(cons *Consumer) {
	c.mu.Lock()
	_ = cons.Wait(1000) // want lockheld
	c.mu.Unlock()
}

// GoodWaitReleased drops the lock before it sleeps.
func (c *counter) GoodWaitReleased(cons *Consumer) {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	_ = cons.Wait(1000)
}

// Suppressed is an acknowledged handoff pattern.
func (c *counter) Suppressed() {
	c.mu.Lock() //lint:allow lockheld fixture: unlocked by the callback
	c.n++
}
