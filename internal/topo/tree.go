package topo

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"darshanldms/internal/streams"
)

// Role is a member's level in the aggregation tree.
type Role int

// Tree roles, leaf to root.
const (
	RoleLeaf Role = iota
	RoleAgg
	RoleRoot
)

func (r Role) String() string {
	switch r {
	case RoleLeaf:
		return "leaf"
	case RoleAgg:
		return "agg"
	case RoleRoot:
		return "root"
	}
	return fmt.Sprintf("Role(%d)", int(r))
}

// Spec declares one tree member: its configured parent, its failover
// standby, and the bus its uplink delivers into (the member's ingest
// surface). The root has no parent.
type Spec struct {
	Name    string
	Role    Role
	Parent  string // configured upstream ("" only for the root)
	Standby string // failover parent ("" = no failover)
	Bus     *streams.Bus
}

// member is a Spec plus its runtime state.
type member struct {
	Spec
	parent      string // current upstream (failover re-points this)
	alive       bool
	partitioned bool // uplink to current parent cut by a fault
	misses      int  // consecutive heartbeat misses against current parent
}

// TreeEvent is one control-plane transition, stamped in the injected
// clock's time (virtual in the sim).
type TreeEvent struct {
	At  time.Duration
	Msg string
}

func (e TreeEvent) String() string { return fmt.Sprintf("[%8.3fs] %s", e.At.Seconds(), e.Msg) }

// Tree is the aggregation-tree control plane: membership, liveness, and
// heartbeat-driven failover. Every uplink delivery attempt doubles as a
// heartbeat against the child's current parent; FailAfter consecutive
// misses (a dead parent or a partitioned link — the child cannot tell
// the difference, and does not need to) flip the child between its
// configured parent and its standby, the only two upstreams an ldmsd
// knows (-topo-parent, -topo-standby). A child without a standby stays
// and retries. Children never fail back on a restart: a recovered
// aggregator drains its own backlog and regains a child only when that
// child's current upstream fails in turn. Detection latency is therefore
// FailAfter x the uplink poll interval.
//
// The tree is clock-agnostic (the injected clock only stamps the event
// log) and all iteration is over sorted member names, so a seeded run
// replays bit-for-bit.
type Tree struct {
	mu        sync.Mutex
	clock     func() time.Duration
	failAfter int
	members   map[string]*member
	order     []string
	log       []TreeEvent
	rehomes   uint64
	misses    uint64 // heartbeat misses, cumulative
}

// DefaultFailAfter is the miss threshold used when NewTree gets <= 0.
const DefaultFailAfter = 3

// NewTree creates an empty tree. clock stamps the event log (nil = zero
// timestamps); failAfter is the consecutive-miss failover threshold.
func NewTree(clock func() time.Duration, failAfter int) *Tree {
	if clock == nil {
		clock = func() time.Duration { return 0 }
	}
	if failAfter <= 0 {
		failAfter = DefaultFailAfter
	}
	return &Tree{clock: clock, failAfter: failAfter, members: map[string]*member{}}
}

// Add registers a member. Parents (and standbys) must already be
// registered — build the tree root first — so a misspelled parent is an
// error at assembly time, not a silent black hole at delivery time.
func (t *Tree) Add(s Spec) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Name == "" {
		return fmt.Errorf("topo: tree member needs a name")
	}
	if _, ok := t.members[s.Name]; ok {
		return fmt.Errorf("topo: tree member %q already registered", s.Name)
	}
	if s.Role == RoleRoot {
		if s.Parent != "" || s.Standby != "" {
			return fmt.Errorf("topo: root %q cannot have a parent or standby", s.Name)
		}
	} else {
		if s.Parent == "" {
			return fmt.Errorf("topo: member %q needs a parent", s.Name)
		}
		if _, ok := t.members[s.Parent]; !ok {
			return fmt.Errorf("topo: member %q: unknown parent %q", s.Name, s.Parent)
		}
		if s.Standby != "" {
			if s.Standby == s.Name {
				return fmt.Errorf("topo: member %q is its own standby", s.Name)
			}
			if _, ok := t.members[s.Standby]; !ok {
				return fmt.Errorf("topo: member %q: unknown standby %q", s.Name, s.Standby)
			}
		}
	}
	m := &member{Spec: s, parent: s.Parent, alive: true}
	t.members[s.Name] = m
	i := sort.SearchStrings(t.order, s.Name)
	t.order = append(t.order, "")
	copy(t.order[i+1:], t.order[i:])
	t.order[i] = s.Name
	return nil
}

// logf appends to the event log at the current clock.
func (t *Tree) logf(format string, args ...any) {
	t.log = append(t.log, TreeEvent{At: t.clock(), Msg: fmt.Sprintf(format, args...)})
}

// Crash marks a member's process dead: its own uplink pauses and its
// children start missing heartbeats. Intended as a
// faults.Controller.RegisterCrash hook.
func (t *Tree) Crash(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[name]
	if m == nil || !m.alive {
		return
	}
	m.alive = false
	m.misses = 0
	t.logf("crash %s", name)
}

// Restart marks a member's process live again. Its durable stream kept
// the backlog; children that failed over stay where they are.
func (t *Tree) Restart(name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[name]
	if m == nil || m.alive {
		return
	}
	m.alive = true
	m.misses = 0
	t.logf("restart %s", name)
}

// SetPartition cuts (or heals) a child's uplink to its current parent.
// A failover clears the flag implicitly — the re-homed link is new.
// Intended as a faults.Controller.RegisterToggle hook via a closure.
func (t *Tree) SetPartition(child string, active bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m == nil || m.partitioned == active {
		return
	}
	m.partitioned = active
	if active {
		t.logf("partition uplink %s -> %s", child, m.parent)
	} else {
		m.misses = 0
		t.logf("heal uplink %s", child)
	}
}

// Alive reports whether the member's process is up.
func (t *Tree) Alive(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[name]
	return m != nil && m.alive
}

// Parent returns the member's current upstream.
func (t *Tree) Parent(name string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if m := t.members[name]; m != nil {
		return m.parent
	}
	return ""
}

// Deliver is the heartbeat-and-route step of a child's uplink: it
// returns the current parent's bus when the parent is reachable. An
// unreachable parent (dead, or the link partitioned) counts a miss, and
// the FailAfter'th consecutive miss triggers failover. A dead child gets
// (nil, false) without counting anything — its own process is down.
func (t *Tree) Deliver(child string) (*streams.Bus, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.members[child]
	if m == nil || !m.alive || m.parent == "" {
		return nil, false
	}
	p := t.members[m.parent]
	if m.partitioned || p == nil || !p.alive {
		m.misses++
		t.misses++
		if m.misses >= t.failAfter {
			t.failoverLocked(m)
		}
		return nil, false
	}
	m.misses = 0
	return p.Bus, true
}

// failoverLocked re-homes m the way ldms.Uplink's prober does, between
// its two configured upstreams: from the parent to the standby, and from
// the standby back to the parent. Without a standby m stays where it is,
// retrying. The miss counter resets either way, so a flip to a target
// that is down too flips back after FailAfter more misses.
func (t *Tree) failoverLocked(m *member) {
	m.misses = 0
	if m.Standby == "" {
		return
	}
	old := m.parent
	m.parent = m.Standby
	if old == m.Standby {
		m.parent = m.Parent
	}
	m.partitioned = false
	t.rehomes++
	t.logf("re-home %s: %s -> %s", m.Name, old, m.parent)
}

// Members returns the sorted member names.
func (t *Tree) Members() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.order))
	copy(out, t.order)
	return out
}

// Rehomes returns how many children have been re-homed.
func (t *Tree) Rehomes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rehomes
}

// Misses returns the cumulative heartbeat-miss count.
func (t *Tree) Misses() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.misses
}

// Events returns the control-plane event log in time order.
func (t *Tree) Events() []TreeEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TreeEvent, len(t.log))
	copy(out, t.log)
	return out
}
