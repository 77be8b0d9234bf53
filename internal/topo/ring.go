// Package topo is the scale-out control plane: it makes the pipeline's
// shape dynamic instead of wired at construction time. Two planes live
// here:
//
//   - An aggregation tree (tree.go): node samplers feed L1 aggregators,
//     L1s feed L2s, L2s feed the store head — each hop a durable-stream
//     consumer, so an aggregator loss flips its children to their
//     standby (and back) and the children resume from their durable
//     cursors, with (producer,seq) dedup keeping the end-to-end effect
//     exactly-once. The tree routes; the hops themselves are ldms's
//     round step, driven by the daemons or by the soaks.
//   - Consistent-hash shard placement over dsos daemons (ring.go,
//     rebalance.go): the ring is a dsos.Placement behind the one DSOS
//     client, and HashCluster rebalances it live — growing or shrinking
//     the shard set hands over exactly the moved key ranges, behind a
//     dual-write fence, with an atomic cutover; queries merge both
//     owners mid-migration so nothing acked is ever unreadable.
//
// Everything here is clock-agnostic (callers inject time.Duration
// clocks) and seeded, so the rebalance soak in internal/harness replays
// bit-for-bit.
package topo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// Ring is a seeded consistent-hash ring with virtual nodes. Placement is
// a pure function of (seed, membership): two rings with the same seed and
// the same members agree on every owner regardless of the order members
// were added — so a restarted daemon rebuilds the exact placement it had
// before, and a grow/shrink moves only the key ranges adjacent to the
// changed member's virtual points.
//
// Lookups take a read lock and membership changes a write lock, so
// queries may run concurrently with a rebalance.
type Ring struct {
	mu      sync.RWMutex
	seed    uint64
	vnodes  int
	members []string    // sorted member names
	points  []ringPoint // sorted by (hash, node)
}

type ringPoint struct {
	hash uint64
	node string
}

// DefaultVNodes is the virtual-node count used when RingConfig leaves it 0.
const DefaultVNodes = 64

// NewRing creates an empty ring. vnodes <= 0 selects DefaultVNodes.
func NewRing(seed uint64, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	return &Ring{seed: seed, vnodes: vnodes}
}

// fmix64 is the murmur3 finalizer: a cheap, well-distributed bijection.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hashString folds s into an FNV-1a accumulator seeded by h0, then mixes.
func hashString(h0 uint64, s string) uint64 {
	const prime = 1099511628211
	h := h0 ^ 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return fmix64(h)
}

func (r *Ring) pointHash(node string, i int) uint64 {
	return fmix64(hashString(r.seed, node) + uint64(i)*0x9e3779b97f4a7c15)
}

func (r *Ring) keyHash(key string) uint64 {
	return hashString(r.seed, key)
}

// rebuildLocked regenerates the point list from the sorted member list.
// Placement depends only on (seed, membership), never on mutation order.
func (r *Ring) rebuildLocked() {
	r.points = r.points[:0]
	for _, m := range r.members {
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: r.pointHash(m, i), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

// Add inserts a member. Adding a present member is an error (a caller
// that double-adds has lost track of the membership it is migrating).
func (r *Ring) Add(name string) error {
	if name == "" {
		return errors.New("topo: ring member needs a name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, name)
	if i < len(r.members) && r.members[i] == name {
		return fmt.Errorf("topo: ring member %q already present", name)
	}
	r.members = append(r.members, "")
	copy(r.members[i+1:], r.members[i:])
	r.members[i] = name
	r.rebuildLocked()
	return nil
}

// Remove deletes a member. Removing an absent member is an error.
func (r *Ring) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	i := sort.SearchStrings(r.members, name)
	if i >= len(r.members) || r.members[i] != name {
		return fmt.Errorf("topo: ring member %q not present", name)
	}
	r.members = append(r.members[:i], r.members[i+1:]...)
	r.rebuildLocked()
	return nil
}

// Members returns the sorted member names.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Owners returns up to n distinct members owning key, in ring order from
// the key's position: the primary first, then the replica successors.
// Fewer than n members yields all of them.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ownersLocked(r.keyHash(key), n)
}

func (r *Ring) ownersLocked(h uint64, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		node := r.points[(start+i)%len(r.points)].node
		dup := false
		for _, m := range out {
			if m == node {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, node)
		}
	}
	return out
}

// Groups returns every distinct owner group of size n the ring can map a
// key to, sorted (each group in ring order, the list by its first
// member). A query is only blind to data when some group here is
// entirely unavailable.
func (r *Ring) Groups(n int) [][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	seen := map[string]bool{}
	var out [][]string
	for _, p := range r.points {
		g := r.ownersLocked(p.hash, n)
		k := fmt.Sprint(g)
		if !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// Clone returns an independent copy (used to stage the post-rebalance
// ring while the current one keeps serving).
func (r *Ring) Clone() *Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c := &Ring{seed: r.seed, vnodes: r.vnodes}
	c.members = append([]string(nil), r.members...)
	c.points = append([]ringPoint(nil), r.points...)
	return c
}

// String renders the membership (for logs and config validation errors).
func (r *Ring) String() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return "ring(seed=" + strconv.FormatUint(r.seed, 10) +
		", vnodes=" + strconv.Itoa(r.vnodes) +
		", members=" + fmt.Sprint(r.members) + ")"
}
