package obs

import "time"

// Clock yields a monotonic timestamp as an offset from some epoch. The
// sim zone passes virtual time (sim.Engine.Now, darshan.Ctx.Now); real
// daemons pass WallClock(). obs itself never reads a clock.
type Clock func() time.Duration

// WallClock returns a Clock over the process's wall time, anchored at
// the moment of the call. It is for the REAL zone only: the obsclock
// lint check bans it from the deterministic sim zone, where the
// engine's virtual clock must be threaded instead.
func WallClock() Clock {
	start := time.Now()
	return func() time.Duration {
		return time.Since(start)
	}
}
