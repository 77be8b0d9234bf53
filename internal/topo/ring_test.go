package topo

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// Has reports membership.
func (r *Ring) Has(name string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i := sort.SearchStrings(r.members, name)
	return i < len(r.members) && r.members[i] == name
}

// Owner returns the member owning key (false on an empty ring).
func (r *Ring) Owner(key string) (string, bool) {
	o := r.Owners(key, 1)
	if len(o) == 0 {
		return "", false
	}
	return o[0], true
}

func probeKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("producer-%d/job-%d/rank-%d", i%7, i%13, i)
	}
	return keys
}

func TestRingSingleNode(t *testing.T) {
	r := NewRing(42, 8)
	if _, ok := r.Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	if err := r.Add("only"); err != nil {
		t.Fatal(err)
	}
	for _, k := range probeKeys(64) {
		o, ok := r.Owner(k)
		if !ok || o != "only" {
			t.Fatalf("single-node ring: key %q -> (%q,%v)", k, o, ok)
		}
	}
	if got := r.Owners("k", 3); len(got) != 1 || got[0] != "only" {
		t.Fatalf("Owners beyond membership: %v", got)
	}
	if g := r.Groups(2); len(g) != 1 || len(g[0]) != 1 {
		t.Fatalf("single-node groups: %v", g)
	}
}

// Adding and removing the same node repeatedly must always return the
// ring to exactly the placement it had before the churn.
func TestRingChurnSameNode(t *testing.T) {
	r := NewRing(7, 16)
	for _, m := range []string{"a", "b", "c", "d"} {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	keys := probeKeys(256)
	before := make([]string, len(keys))
	for i, k := range keys {
		before[i], _ = r.Owner(k)
	}
	for i := 0; i < 10; i++ {
		if err := r.Remove("c"); err != nil {
			t.Fatal(err)
		}
		if r.Has("c") {
			t.Fatal("removed member still present")
		}
		// While c is out, its keys must be owned by someone else.
		for _, k := range keys {
			if o, ok := r.Owner(k); !ok || o == "c" {
				t.Fatalf("key %q owned by removed member (%q,%v)", k, o, ok)
			}
		}
		if err := r.Add("c"); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		if o, _ := r.Owner(k); o != before[i] {
			t.Fatalf("churn moved key %q: %q -> %q", k, before[i], o)
		}
	}
	if err := r.Add("c"); err == nil {
		t.Fatal("duplicate Add not rejected")
	}
	if err := r.Remove("zz"); err == nil {
		t.Fatal("absent Remove not rejected")
	}
}

// Placement is a pure function of (seed, membership): a restarted daemon
// that re-adds the members in any order rebuilds the identical ring, and
// a different seed yields a different ring.
func TestRingDeterministicAcrossRestarts(t *testing.T) {
	a := NewRing(2022, 32)
	b := NewRing(2022, 32)
	for _, m := range []string{"dsosd0", "dsosd1", "dsosd2", "dsosd3"} {
		if err := a.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"dsosd3", "dsosd0", "dsosd2", "dsosd1"} {
		if err := b.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	// b also churns before settling on the same membership.
	if err := b.Remove("dsosd2"); err != nil {
		t.Fatal(err)
	}
	if err := b.Add("dsosd2"); err != nil {
		t.Fatal(err)
	}
	for _, k := range probeKeys(512) {
		ao := a.Owners(k, 2)
		bo := b.Owners(k, 2)
		if fmt.Sprint(ao) != fmt.Sprint(bo) {
			t.Fatalf("same seed+membership disagree on %q: %v vs %v", k, ao, bo)
		}
	}
	c := NewRing(2023, 32)
	for _, m := range []string{"dsosd0", "dsosd1", "dsosd2", "dsosd3"} {
		if err := c.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	moved := 0
	for _, k := range probeKeys(512) {
		ao, _ := a.Owner(k)
		co, _ := c.Owner(k)
		if ao != co {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("different seeds produced identical placement for 512 keys")
	}
}

// Every member should own some share of a reasonable keyspace.
func TestRingSpread(t *testing.T) {
	r := NewRing(1, 0) // default vnodes
	members := []string{"a", "b", "c", "d", "e", "f"}
	for _, m := range members {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for _, k := range probeKeys(6000) {
		o, _ := r.Owner(k)
		counts[o]++
	}
	for _, m := range members {
		if counts[m] == 0 {
			t.Fatalf("member %s owns nothing: %v", m, counts)
		}
	}
}

// Concurrent lookups during a rebalance must stay safe (-race) and
// always resolve to a live member of the ring at some recent instant.
func TestRingConcurrentLookupDuringRebalance(t *testing.T) {
	r := NewRing(99, 16)
	for _, m := range []string{"a", "b", "c", "d"} {
		if err := r.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	keys := probeKeys(64)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keys[(i+g)%len(keys)]
				if o, ok := r.Owner(k); !ok || o == "" {
					t.Errorf("lookup lost the ring: (%q,%v)", o, ok)
					return
				}
				if got := r.Owners(k, 2); len(got) == 0 {
					t.Error("Owners empty mid-rebalance")
					return
				}
			}
		}(g)
	}
	// The rebalance: grow and shrink churn while lookups run. Members
	// a..d stay put so the ring is never empty.
	for i := 0; i < 200; i++ {
		name := fmt.Sprintf("spare-%d", i%3)
		if r.Has(name) {
			if err := r.Remove(name); err != nil {
				t.Error(err)
			}
		} else if err := r.Add(name); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
}
