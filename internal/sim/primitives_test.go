package sim

import (
	"testing"
	"time"
)

// Test-only views of primitive state.

// TryRecv returns a queued message without blocking, or (nil, false).
func (m *Mailbox) TryRecv() (any, bool) {
	if len(m.q) == 0 {
		return nil, false
	}
	v := m.q[0]
	m.q = m.q[1:]
	return v, true
}

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting processes.
func (r *Resource) QueueLen() int { return len(r.waiters) }

func TestResourceSerializes(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "disk", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 1, 10*time.Second)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Second, 20 * time.Second, 30 * time.Second}
	for i, w := range want {
		if finish[i] != w {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "ost", 2)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Spawn("user", func(p *Proc) {
			r.Use(p, 1, 10*time.Second)
			finish = append(finish, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Two at a time: finish at 10,10,20,20.
	want := []time.Duration{10 * time.Second, 10 * time.Second, 20 * time.Second, 20 * time.Second}
	for i, w := range want {
		if finish[i] != w {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestResourceFIFONoOvertaking(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "srv", 2)
	var order []string
	// p0 takes both units; p1 wants both; p2 wants one. Strict FIFO means p2
	// must not overtake p1 even though one unit frees up first... with
	// capacity 2 and p0 holding 2, when p0 releases, p1 (first in line) gets
	// both, then p2.
	e.Spawn("p0", func(p *Proc) {
		r.Acquire(p, 2)
		p.Sleep(5 * time.Second)
		r.Release(2)
		order = append(order, "p0")
	})
	e.Spawn("p1", func(p *Proc) {
		p.Sleep(time.Second)
		r.Acquire(p, 2)
		order = append(order, "p1-acq")
		p.Sleep(5 * time.Second)
		r.Release(2)
	})
	e.Spawn("p2", func(p *Proc) {
		p.Sleep(2 * time.Second)
		r.Acquire(p, 1)
		order = append(order, "p2-acq")
		r.Release(1)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if order[0] != "p0" || order[1] != "p1-acq" || order[2] != "p2-acq" {
		t.Fatalf("order = %v", order)
	}
}

func TestResourcePanicsOnOversizeRequest(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "small", 1)
	e.Spawn("greedy", func(p *Proc) { r.Acquire(p, 2) })
	err := e.Run(0)
	if _, ok := err.(*ProcPanicError); !ok {
		t.Fatalf("want ProcPanicError, got %v", err)
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "x", 1)
	e.Spawn("p", func(p *Proc) { r.Release(1) })
	if _, ok := e.Run(0).(*ProcPanicError); !ok {
		t.Fatal("over-release should panic the process")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	b := NewBarrier(e, "mpi", 3)
	var release []time.Duration
	for i, d := range []time.Duration{time.Second, 5 * time.Second, 9 * time.Second} {
		_ = i
		d := d
		e.Spawn("rank", func(p *Proc) {
			p.Sleep(d)
			b.Wait(p)
			release = append(release, p.Now())
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	for _, r := range release {
		if r != 9*time.Second {
			t.Fatalf("release times %v, want all 9s", release)
		}
	}
}

func TestBarrierReusable(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	b := NewBarrier(e, "mpi", 2)
	rounds := 0
	for i := 0; i < 2; i++ {
		e.Spawn("rank", func(p *Proc) {
			for r := 0; r < 5; r++ {
				p.Sleep(time.Second)
				b.Wait(p)
			}
			rounds++
		})
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Fatalf("rounds finished: %d", rounds)
	}
}

func TestMailboxFIFO(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	m := NewMailbox(e, "mb")
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, m.Recv(p).(int))
		}
	})
	e.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		m.Send(1)
		m.Send(2)
		m.Send(3)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxLatency(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	m := NewMailbox(e, "net")
	var at time.Duration
	e.Spawn("recv", func(p *Proc) {
		m.Recv(p)
		at = p.Now()
	})
	e.Spawn("send", func(p *Proc) {
		e.After(250*time.Millisecond, func() { m.Send("hello") })
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if at != 250*time.Millisecond {
		t.Fatalf("received at %v", at)
	}
}

func TestMailboxTryRecv(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	m := NewMailbox(e, "mb")
	if _, ok := m.TryRecv(); ok {
		t.Fatal("TryRecv on empty mailbox returned a value")
	}
	m.Send(42)
	v, ok := m.TryRecv()
	if !ok || v.(int) != 42 {
		t.Fatalf("TryRecv = %v,%v", v, ok)
	}
	if m.Len() != 0 {
		t.Fatal("mailbox should be empty")
	}
}

func TestMailboxMultipleReceivers(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	m := NewMailbox(e, "mb")
	var got []int
	for i := 0; i < 2; i++ {
		e.Spawn("recv", func(p *Proc) {
			got = append(got, m.Recv(p).(int))
		})
	}
	e.Spawn("send", func(p *Proc) {
		p.Sleep(time.Second)
		m.Send(7)
		m.Send(8)
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	// Receivers are served FIFO: first spawned receiver gets 7.
	if len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("got %v", got)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if doneAt != 3*time.Second {
		t.Fatalf("waiter released at %v", doneAt)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	wg := NewWaitGroup(e)
	ok := false
	e.Spawn("p", func(p *Proc) {
		wg.Wait(p) // should not block
		ok = true
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("Wait on zero counter blocked")
	}
}

func TestResourceQueueObservability(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	r := NewResource(e, "disk", 1)
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1)
		p.Sleep(10 * time.Second)
		r.Release(1)
	})
	e.Spawn("waiter", func(p *Proc) {
		p.Sleep(time.Second)
		r.Acquire(p, 1)
		r.Release(1)
	})
	e.Spawn("observer", func(p *Proc) {
		p.Sleep(2 * time.Second)
		if r.InUse() != 1 || r.QueueLen() != 1 || r.Capacity() != 1 {
			t.Errorf("observability: inuse=%d queue=%d cap=%d", r.InUse(), r.QueueLen(), r.Capacity())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}
