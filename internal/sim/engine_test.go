package sim

import (
	"errors"
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var at []time.Duration
	e.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Sleep(3 * time.Second)
		at = append(at, p.Now())
		p.Sleep(2 * time.Second)
		at = append(at, p.Now())
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{0, 3 * time.Second, 5 * time.Second}
	for i, w := range want {
		if at[i] != w {
			t.Fatalf("observation %d at %v, want %v", i, at[i], w)
		}
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("final time %v", e.Now())
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-time.Second)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 0 {
		t.Fatalf("time moved: %v", e.Now())
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		defer e.Close()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(time.Second)
					order = append(order, name)
				}
			})
		}
		if err := e.Run(0); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("non-deterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
	// Equal-time events fire in spawn order.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i, w := range want {
		if first[i] != w {
			t.Fatalf("order = %v, want %v", first, want)
		}
	}
}

func TestAtCallback(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	fired := time.Duration(-1)
	e.At(7*time.Second, func() { fired = e.Now() })
	e.Spawn("p", func(p *Proc) { p.Sleep(10 * time.Second) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 7*time.Second {
		t.Fatalf("callback fired at %v", fired)
	}
}

func TestRunLimit(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("p", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 10*time.Second {
		t.Fatalf("limit stop at %v", e.Now())
	}
}

func TestDaemonDoesNotKeepRunAlive(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	ticks := 0
	e.SpawnDaemon("sampler", func(p *Proc) {
		for {
			p.Sleep(time.Second)
			ticks++
		}
	})
	e.Spawn("app", func(p *Proc) { p.Sleep(5 * time.Second) })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("run ended at %v, want 5s", e.Now())
	}
	if ticks < 4 || ticks > 5 {
		t.Fatalf("daemon ticked %d times", ticks)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("stuck", func(p *Proc) { p.Block("waiting for godot") })
	err := e.Run(0)
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck: waiting for godot" {
		t.Fatalf("blocked list = %v", dl.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	err := e.Run(0)
	var pp *ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("want ProcPanicError, got %v", err)
	}
	if pp.ProcName != "bad" || pp.Value != "boom" {
		t.Fatalf("panic error = %+v", pp)
	}
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var childTime time.Duration
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2 * time.Second)
		e.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childTime = c.Now()
		})
		p.Sleep(5 * time.Second)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if childTime != 3*time.Second {
		t.Fatalf("child finished at %v, want 3s", childTime)
	}
}

func TestWakeBlockedProc(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	var woke time.Duration
	var target *Proc
	e.Spawn("blocked", func(p *Proc) {
		target = p
		p.granted = false
		for !p.granted {
			p.Block("manual")
		}
		woke = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(6 * time.Second)
		target.granted = true
		e.Wake(target)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if woke != 6*time.Second {
		t.Fatalf("woke at %v", woke)
	}
}

func TestManyProcsComplete(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	const n = 500
	done := 0
	for i := 0; i < n; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Sleep(time.Duration(i%17) * time.Millisecond)
			done++
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("%d of %d completed", done, n)
	}
}

func TestCloseReleasesBlockedGoroutines(t *testing.T) {
	e := NewEngine()
	e.Spawn("stuck", func(p *Proc) { p.Block("forever") })
	if err := e.Run(0); err == nil {
		t.Fatal("expected deadlock")
	}
	e.Close() // must not hang
	e.Close() // idempotent
}
