package topo

import (
	"strings"
	"testing"
	"time"

	"darshanldms/internal/sim"
	"darshanldms/internal/streams"
)

// buildTestTree assembles root <- {l2} <- {l1a, l1b (standby l1s)} with
// leaves under l1a.
func buildTestTree(t *testing.T) *Tree {
	t.Helper()
	tr := NewTree(nil, 3)
	add := func(s Spec) {
		t.Helper()
		s.Bus = streams.NewBus()
		if err := tr.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	add(Spec{Name: "root", Role: RoleRoot})
	add(Spec{Name: "l2", Role: RoleAgg, Parent: "root"})
	add(Spec{Name: "l1s", Role: RoleAgg, Parent: "l2"})
	add(Spec{Name: "l1a", Role: RoleAgg, Parent: "l2", Standby: "l1s"})
	add(Spec{Name: "l1b", Role: RoleAgg, Parent: "l2", Standby: "l1s"})
	add(Spec{Name: "leaf0", Role: RoleLeaf, Parent: "l1a", Standby: "l1b"})
	add(Spec{Name: "leaf1", Role: RoleLeaf, Parent: "l1a"})
	return tr
}

func TestTreeAddValidation(t *testing.T) {
	tr := NewTree(nil, 0)
	if err := tr.Add(Spec{Name: "a", Role: RoleAgg, Parent: "ghost"}); err == nil {
		t.Fatal("unknown parent accepted")
	}
	if err := tr.Add(Spec{Name: "root", Role: RoleRoot, Parent: "x"}); err == nil {
		t.Fatal("root with parent accepted")
	}
	if err := tr.Add(Spec{Name: "root", Role: RoleRoot}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(Spec{Name: "root", Role: RoleRoot}); err == nil {
		t.Fatal("duplicate accepted")
	}
	if err := tr.Add(Spec{Name: "a", Role: RoleAgg, Parent: "root", Standby: "a"}); err == nil {
		t.Fatal("self-standby accepted")
	}
	if err := tr.Add(Spec{Name: "a", Role: RoleAgg}); err == nil {
		t.Fatal("parentless aggregator accepted")
	}
}

func TestTreeFailoverToStandby(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("l1a")
	for i := 0; i < 2; i++ {
		if _, ok := tr.Deliver("leaf0"); ok {
			t.Fatal("delivered to a dead parent")
		}
		if got := tr.Parent("leaf0"); got != "l1a" {
			t.Fatalf("re-homed after %d misses (threshold 3): parent %s", i+1, got)
		}
	}
	tr.Deliver("leaf0") // third miss fires failover
	if got := tr.Parent("leaf0"); got != "l1b" {
		t.Fatalf("leaf0 parent = %s, want standby l1b", got)
	}
	if _, ok := tr.Deliver("leaf0"); !ok {
		t.Fatal("delivery via standby failed")
	}
	if tr.Rehomes() != 1 {
		t.Fatalf("rehomes = %d", tr.Rehomes())
	}
}

func TestTreeStaysWhenNoStandby(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("l1a")
	for i := 0; i < 9; i++ {
		if _, ok := tr.Deliver("leaf1"); ok { // no standby configured
			t.Fatal("delivered to a dead parent")
		}
	}
	if got := tr.Parent("leaf1"); got != "l1a" {
		t.Fatalf("leaf1 parent = %s, want l1a: an uplink knows no third address", got)
	}
	if tr.Rehomes() != 0 {
		t.Fatalf("rehomes = %d", tr.Rehomes())
	}
	tr.Restart("l1a")
	if _, ok := tr.Deliver("leaf1"); !ok {
		t.Fatal("delivery after the parent restarted failed")
	}
}

func TestTreePartitionTriggersFailover(t *testing.T) {
	tr := buildTestTree(t)
	tr.SetPartition("leaf0", true)
	for i := 0; i < 3; i++ {
		if _, ok := tr.Deliver("leaf0"); ok {
			t.Fatal("delivered across a partition")
		}
	}
	if got := tr.Parent("leaf0"); got != "l1b" {
		t.Fatalf("leaf0 parent = %s, want l1b", got)
	}
	// Re-home clears the partition: the cut link no longer exists.
	if _, ok := tr.Deliver("leaf0"); !ok {
		t.Fatal("delivery after partition failover failed")
	}
}

func TestTreePartitionHealResetsMisses(t *testing.T) {
	tr := buildTestTree(t)
	tr.SetPartition("leaf0", true)
	tr.Deliver("leaf0")
	tr.Deliver("leaf0")
	tr.SetPartition("leaf0", false)
	tr.Deliver("leaf0") // would be the third miss if heal didn't reset
	if got := tr.Parent("leaf0"); got != "l1a" {
		t.Fatalf("healed link still failed over: parent %s", got)
	}
}

func TestTreeNoFailbackAfterRestart(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("l1a")
	for i := 0; i < 3; i++ {
		tr.Deliver("leaf0")
	}
	tr.Restart("l1a")
	if _, ok := tr.Deliver("leaf0"); !ok {
		t.Fatal("standby delivery failed")
	}
	if got := tr.Parent("leaf0"); got != "l1b" {
		t.Fatalf("leaf0 failed back to %s", got)
	}
}

// With both upstreams dead the child flips between them every FailAfter
// misses, as ldms.Uplink's prober does, and lands on whichever returns.
func TestTreeFlipsWhenBothUpstreamsDead(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("l1a")
	tr.Crash("l1b")
	for i, want := range []string{"l1b", "l1a", "l1b"} {
		for j := 0; j < 3; j++ {
			tr.Deliver("leaf0")
		}
		if got := tr.Parent("leaf0"); got != want {
			t.Fatalf("after flip %d: parent %s, want %s", i+1, got, want)
		}
	}
	tr.Restart("l1a")
	for i := 0; i < 3; i++ {
		tr.Deliver("leaf0")
	}
	if got := tr.Parent("leaf0"); got != "l1a" {
		t.Fatalf("flip after restart did not reach l1a: parent %s", got)
	}
	if _, ok := tr.Deliver("leaf0"); !ok {
		t.Fatal("delivery to the restarted parent failed")
	}
}

// A child whose standby dies after its parent restarted goes back to the
// parent, never to the grandparent: the parent and the standby are the
// only upstreams it has.
func TestTreeFailsBackToRestartedParent(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("l1a")
	for i := 0; i < 3; i++ {
		tr.Deliver("leaf0")
	}
	tr.Restart("l1a")
	tr.Crash("l1b")
	for i := 0; i < 3; i++ {
		tr.Deliver("leaf0")
	}
	if got := tr.Parent("leaf0"); got != "l1a" {
		t.Fatalf("leaf0 parent = %s, want its restarted parent l1a", got)
	}
	if _, ok := tr.Deliver("leaf0"); !ok {
		t.Fatal("delivery back to the parent failed")
	}
	if tr.Rehomes() != 2 {
		t.Fatalf("rehomes = %d, want 2", tr.Rehomes())
	}
}

func TestTreeDeadChildCountsNothing(t *testing.T) {
	tr := buildTestTree(t)
	tr.Crash("leaf0")
	before := tr.Misses()
	if _, ok := tr.Deliver("leaf0"); ok {
		t.Fatal("dead child delivered")
	}
	if tr.Misses() != before {
		t.Fatal("dead child counted a heartbeat miss")
	}
}

func TestTreeEventLogStampsVirtualTime(t *testing.T) {
	e := sim.NewEngine()
	defer e.Close()
	tr := NewTree(e.Now, 3)
	if err := tr.Add(Spec{Name: "root", Role: RoleRoot}); err != nil {
		t.Fatal(err)
	}
	e.At(250*time.Millisecond, func() { tr.Crash("root") })
	if err := e.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	evs := tr.Events()
	if len(evs) != 1 || !strings.Contains(evs[0].String(), "[   0.250s] crash root") {
		t.Fatalf("events = %v", evs)
	}
}
