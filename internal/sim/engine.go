// Package sim is a deterministic discrete-event simulation kernel.
//
// Simulated entities (MPI ranks, LDMS daemons, file-system servers) are
// processes: ordinary Go functions running in their own goroutine, but
// scheduled cooperatively so that exactly one process (or the engine) runs
// at a time. Virtual time only advances between events, and events at equal
// timestamps fire in the order they were scheduled, so a simulation with a
// fixed seed is reproducible bit-for-bit.
//
// The kernel provides the usual DES toolbox: Sleep, capacity Resources with
// FIFO queueing (used to model NFS servers, Lustre OSTs and node CPUs),
// Barriers (MPI), and Mailboxes with delivery latency (network messages).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"
)

// errKilled is panicked inside a process goroutine to unwind it when the
// engine shuts down while the process is blocked.
var errKilled = errors.New("sim: process killed")

// event is a scheduled occurrence: either the wakeup of a process or an
// engine-context callback.
type event struct {
	at   time.Duration
	seq  uint64
	proc *Proc  // non-nil: resume this process
	fn   func() // non-nil: run in engine context
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// yieldMsg is sent from a process goroutine to the engine when the process
// gives up control.
type yieldMsg struct {
	p    *Proc
	done bool
	err  any // recovered panic value, if the process died abnormally
}

// Engine is the simulation kernel. Create one with NewEngine, spawn
// processes, then call Run.
type Engine struct {
	now     time.Duration
	events  eventHeap
	seq     uint64
	yieldCh chan yieldMsg
	live    map[*Proc]struct{}
	workers int // live non-daemon processes
	closed  bool
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{
		yieldCh: make(chan yieldMsg),
		live:    make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seconds returns the current virtual time in seconds.
func (e *Engine) Seconds() float64 { return e.now.Seconds() }

func (e *Engine) push(at time.Duration, p *Proc, fn func()) *event {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := &event{at: at, seq: e.seq, proc: p, fn: fn}
	heap.Push(&e.events, ev)
	return ev
}

// At schedules fn to run in engine context at absolute virtual time t.
// fn must not block; it may spawn processes, wake them, or schedule more
// callbacks.
func (e *Engine) At(t time.Duration, fn func()) {
	e.push(t, nil, fn)
}

// After schedules fn to run in engine context after delay d.
func (e *Engine) After(d time.Duration, fn func()) {
	e.push(e.now+d, nil, fn)
}

// Proc is a simulated process. Methods on Proc must only be called from the
// process's own goroutine (they are handed to the function passed to Spawn).
type Proc struct {
	Name   string
	e      *Engine
	resume chan struct{}
	kill   chan struct{}
	daemon bool
	dead   bool

	// state describes what the process is blocked on, for deadlock reports.
	state string
	// handoff carries a value delivered directly to a blocked receiver.
	handoff any
	granted bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.e.now }

// Seconds returns the current virtual time in seconds.
func (p *Proc) Seconds() float64 { return p.e.now.Seconds() }

// Spawn creates a process that starts (at the current virtual time) once the
// engine processes its start event. Run returns after all non-daemon
// processes have finished.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, false)
}

// SpawnDaemon creates a background process (a sampler, an aggregator) that
// does not keep Run alive: Run returns when all non-daemon processes have
// finished, regardless of daemons.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	return e.spawn(name, fn, true)
}

func (e *Engine) spawn(name string, fn func(*Proc), daemon bool) *Proc {
	p := &Proc{
		Name:   name,
		e:      e,
		resume: make(chan struct{}),
		kill:   make(chan struct{}),
		daemon: daemon,
	}
	e.live[p] = struct{}{}
	if !daemon {
		e.workers++
	}
	go func() {
		select {
		case <-p.resume:
		case <-p.kill:
			return
		}
		defer func() {
			r := recover()
			if r == errKilled {
				return
			}
			e.yieldCh <- yieldMsg{p: p, done: true, err: r}
		}()
		fn(p)
	}()
	e.push(e.now, p, nil)
	return p
}

// yield returns control to the engine. The caller must already have arranged
// for a future wakeup (a scheduled event or registration in a wait list).
func (p *Proc) yield() {
	p.e.yieldCh <- yieldMsg{p: p}
	select {
	case <-p.resume:
	case <-p.kill:
		panic(errKilled)
	}
}

// Sleep suspends the process for d of virtual time.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.state = "sleeping"
	p.e.push(p.e.now+d, p, nil)
	p.yield()
	p.state = ""
}

// Block suspends the process indefinitely; some other party must call Wake.
// reason is reported if the simulation deadlocks.
func (p *Proc) Block(reason string) {
	p.state = reason
	p.yield()
	p.state = ""
}

// Wake schedules p to resume at the current virtual time. It may be called
// from engine context or from another process.
func (e *Engine) Wake(p *Proc) {
	if p.dead {
		return
	}
	e.push(e.now, p, nil)
}

// DeadlockError is returned by Run when no events remain but non-daemon
// processes are still blocked.
type DeadlockError struct {
	Time    time.Duration
	Blocked []string // "name: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v; blocked: %v", d.Time, d.Blocked)
}

// ProcPanicError is returned by Run when a process panicked.
type ProcPanicError struct {
	ProcName string
	Value    any
}

func (p *ProcPanicError) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.ProcName, p.Value)
}

// Run processes events until all non-daemon processes have finished, the
// event queue drains, or the optional time limit is exceeded (limit <= 0
// means no limit). It returns a DeadlockError if workers remain but no
// events can wake them, and a ProcPanicError if a process panicked.
// After Run returns, Close should be called to release daemon goroutines.
func (e *Engine) Run(limit time.Duration) error {
	for e.events.Len() > 0 {
		if e.workers == 0 && e.allWorkersDone() {
			return nil
		}
		ev := heap.Pop(&e.events).(*event)
		if limit > 0 && ev.at > limit {
			heap.Push(&e.events, ev) // leave it for a later Run/Drain
			e.now = limit
			return nil
		}
		e.now = ev.at
		switch {
		case ev.proc != nil:
			if ev.proc.dead {
				continue
			}
			ev.proc.resume <- struct{}{}
			msg := <-e.yieldCh
			if msg.done {
				msg.p.dead = true
				delete(e.live, msg.p)
				if !msg.p.daemon {
					e.workers--
				}
				if msg.err != nil {
					return &ProcPanicError{ProcName: msg.p.Name, Value: msg.err}
				}
			}
		case ev.fn != nil:
			ev.fn()
		}
	}
	if e.workers > 0 {
		var blocked []string
		for p := range e.live {
			if !p.daemon {
				blocked = append(blocked, p.Name+": "+p.state)
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{Time: e.now, Blocked: blocked}
	}
	return nil
}

func (e *Engine) allWorkersDone() bool { return e.workers == 0 }

// Drain continues processing events after Run has returned, ignoring the
// worker count, until virtual time would exceed limit or the queue empties.
// It flushes in-flight engine callbacks (e.g. relayed stream messages still
// travelling between aggregation hops when the job's last rank exited).
func (e *Engine) Drain(limit time.Duration) error {
	if limit <= e.now {
		return nil
	}
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(*event)
		if ev.at > limit {
			heap.Push(&e.events, ev)
			e.now = limit
			return nil
		}
		e.now = ev.at
		switch {
		case ev.proc != nil:
			if ev.proc.dead {
				continue
			}
			ev.proc.resume <- struct{}{}
			msg := <-e.yieldCh
			if msg.done {
				msg.p.dead = true
				delete(e.live, msg.p)
				if !msg.p.daemon {
					e.workers--
				}
				if msg.err != nil {
					return &ProcPanicError{ProcName: msg.p.Name, Value: msg.err}
				}
			}
		case ev.fn != nil:
			ev.fn()
		}
	}
	return nil
}

// Close terminates all remaining process goroutines. The engine must not be
// used afterwards.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	for p := range e.live {
		p.dead = true
		close(p.kill)
	}
	e.live = map[*Proc]struct{}{}
	e.events = nil
}
