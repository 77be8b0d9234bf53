package sim

import "time"

// VClock is a per-process virtual sub-clock for macro-stepped workloads.
//
// A workload that performs millions of cheap operations (e.g. HMMER's small
// buffered STDIO calls) would cost one scheduler event per operation if each
// called Sleep directly. VClock instead accumulates the durations and
// flushes them into a single Sleep once the pending time crosses
// FlushThreshold, while still exposing a Now that includes the pending
// time — so every individual operation retains a distinct, monotone
// absolute timestamp (which is the whole point of the paper).
type VClock struct {
	p *Proc
	// FlushThreshold is how much virtual time may accumulate before the
	// process actually sleeps. Smaller values interleave more faithfully
	// with other processes; larger values are faster to simulate.
	FlushThreshold time.Duration
	pending        time.Duration
}

// NewVClock creates a virtual sub-clock for p with the given flush
// threshold (<= 0 selects 250ms).
func NewVClock(p *Proc, threshold time.Duration) *VClock {
	if threshold <= 0 {
		threshold = 250 * time.Millisecond
	}
	return &VClock{p: p, FlushThreshold: threshold}
}

// Now returns the process's effective virtual time including pending,
// unflushed advances.
func (c *VClock) Now() time.Duration { return c.p.Now() + c.pending }

// Advance adds d to the pending time, flushing if the threshold is reached.
func (c *VClock) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	c.pending += d
	if c.pending >= c.FlushThreshold {
		c.Flush()
	}
}

// Flush sleeps off all pending time. Call before any operation that must
// observe the true global clock (a blocking I/O call, a barrier).
func (c *VClock) Flush() {
	if c.pending > 0 {
		d := c.pending
		c.pending = 0
		c.p.Sleep(d)
	}
}
