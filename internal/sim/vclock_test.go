package sim

import (
	"testing"
	"time"
)

func TestVClockAccumulatesAndFlushes(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		c := NewVClock(p, 100*time.Millisecond)
		for i := 0; i < 99; i++ {
			c.Advance(time.Millisecond)
		}
		if p.Now() != 0 {
			t.Errorf("global clock moved before threshold: %v", p.Now())
		}
		if c.Now() != 99*time.Millisecond {
			t.Errorf("virtual now %v, want 99ms", c.Now())
		}
		c.Advance(time.Millisecond) // crosses threshold -> flush
		if p.Now() != 100*time.Millisecond {
			t.Errorf("global clock %v after flush, want 100ms", p.Now())
		}
		if c.pending != 0 {
			t.Errorf("pending %v after flush", c.pending)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestVClockMonotoneTimestamps(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		c := NewVClock(p, 50*time.Millisecond)
		last := time.Duration(-1)
		for i := 0; i < 10000; i++ {
			c.Advance(7 * time.Microsecond)
			now := c.Now()
			if now < last {
				t.Fatalf("timestamp went backwards at op %d: %v < %v", i, now, last)
			}
			last = now
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestVClockExplicitFlush(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		c := NewVClock(p, time.Hour)
		c.Advance(3 * time.Second)
		c.Flush()
		if p.Now() != 3*time.Second {
			t.Errorf("after explicit flush: %v", p.Now())
		}
		c.Flush() // no pending: no-op
		if p.Now() != 3*time.Second {
			t.Errorf("double flush moved clock: %v", p.Now())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestVClockNegativeAdvance(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		c := NewVClock(p, time.Second)
		c.Advance(-time.Minute)
		if c.pending != 0 {
			t.Errorf("negative advance changed pending: %v", c.pending)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestVClockDefaultThreshold(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		c := NewVClock(p, 0)
		if c.FlushThreshold != 250*time.Millisecond {
			t.Errorf("default threshold %v", c.FlushThreshold)
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
