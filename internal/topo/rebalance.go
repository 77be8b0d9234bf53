package topo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/sos"
)

// DarshanKey places darshan segments by (producer, job, rank): one
// rank's records stay on one shard, so per-rank diagnosis queries touch
// one owner, and the key is stable across every hop of the pipeline.
func DarshanKey(schema string, o sos.Object) string {
	if schema == dsos.DarshanSchemaName && o.Len() > jsonmsg.ColJobID {
		// A mistyped attribute keys as its zero value; the row then fails
		// the store's check on its owner.
		var prod string
		var job, rank int64
		if o.Type(jsonmsg.ColProducerName) == sos.TypeString {
			prod = o.Str(jsonmsg.ColProducerName)
		}
		if o.Type(jsonmsg.ColJobID) == sos.TypeInt64 {
			job = o.Int(jsonmsg.ColJobID)
		}
		if o.Type(jsonmsg.ColRank) == sos.TypeInt64 {
			rank = o.Int(jsonmsg.ColRank)
		}
		return prod + "/" + strconv.FormatInt(job, 10) + "/" + strconv.FormatInt(rank, 10)
	}
	return schema + "/" + fmt.Sprint(o.Values())
}

// hashIndex is the identity index migrations drain, audit and clean by,
// and hashSchema the schema it covers.
const (
	hashIndex  = "job_rank_time"
	hashSchema = dsos.DarshanSchemaName
)

// HashConfig parameterizes a HashCluster.
type HashConfig struct {
	// Seed seeds the consistent-hash ring; same seed + same members =
	// same placement, across restarts and across daemons.
	Seed uint64
	// VNodes is the ring's virtual-node count per member (0 = default).
	VNodes int
	// Replication is the owner-group size R (default 1). Unlike the
	// round-robin placement, a hash insert acks only when EVERY owner
	// stored it — a down owner is backpressure for the durable pipeline
	// to retry, not a silently thinner replica set.
	Replication int
	// Factory builds a new shard daemon for Grow (required to grow).
	Factory func(name string) (*dsos.Daemon, error)
}

// ringPlacement is the hash ring as a dsos.Placement: one immutable
// snapshot of the ring and its member set. Objects are placed by
// DarshanKey, and every owner must ack.
type ringPlacement struct {
	ring    *Ring
	repl    int
	byName  map[string]*dsos.Daemon
	members []*dsos.Daemon   // sorted by name
	groups  [][]*dsos.Daemon // the ring's owner groups
}

func (p *ringPlacement) Members() []*dsos.Daemon  { return p.members }
func (p *ringPlacement) Groups() [][]*dsos.Daemon { return p.groups }

// Rules: every owner acks with whole-batch admission, origins are always
// stamped (queries dedup, by them, the copies a move holds on both sides
// until its sources retain), and there is no read repair — a copy on a
// non-owner is a placement violation.
func (p *ringPlacement) Rules() dsos.Rules { return dsos.Rules{AckAll: true, Stamp: true} }

func (p *ringPlacement) Owners(schema string, obj sos.Object, _ uint64) []*dsos.Daemon {
	names := p.ring.Owners(DarshanKey(schema, obj), p.repl)
	owners := make([]*dsos.Daemon, len(names))
	for i, name := range names {
		owners[i] = p.byName[name]
	}
	return owners
}

// owns reports whether name is one of the ring owners of o.
func (p *ringPlacement) owns(name string, o sos.Object) bool {
	return contains(p.ring.Owners(DarshanKey(hashSchema, o), p.repl), name)
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// HashCluster is the migration layer over a dsos cluster placed by
// consistent hash: it owns the ring, swaps the cluster's placement on
// every membership change, and rebalances live. Inserts and queries go
// through the cluster's one client. Grow and Shrink each do a whole move
// behind the cluster's insert barrier (dsos.Cluster.Rebalance), so no
// insert is in flight while the keys move and none outlives the ring it
// was placed by:
//
//	drain: every source hands the objects whose owners on the next ring
//	  include a member that does not hold them to that destination;
//	swap: the next ring becomes the cluster's placement;
//	retain: every member keeps exactly what it owns on the new ring (WALs
//	  rewritten to match, so restarts cannot resurrect moved keys).
//
// Queries keep running through a move and dedup by origin, so a key is
// readable from one side or both at every instant of it.
type HashCluster struct {
	cfg     HashConfig
	cluster *dsos.Cluster

	mu         sync.Mutex
	cur        *ringPlacement // what the cluster currently places by
	migrations uint64
	moved      uint64 // objects copied by handoffs
}

// RebalanceStats snapshots the migration counters.
type RebalanceStats struct {
	Members    int
	Migrations uint64 // completed grows and shrinks
	Moved      uint64 // objects copied by handoffs
}

// NewHashCluster switches the cluster (daemons, schemas and WALs already
// set up) from round-robin to consistent-hash placement over its current
// members.
func NewHashCluster(cfg HashConfig, cluster *dsos.Cluster) (*HashCluster, error) {
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	h := &HashCluster{cfg: cfg, cluster: cluster}
	ring := NewRing(cfg.Seed, cfg.VNodes)
	byName := map[string]*dsos.Daemon{}
	for _, d := range cluster.Daemons() {
		if err := ring.Add(d.Name); err != nil {
			return nil, err
		}
		byName[d.Name] = d
	}
	h.cur = h.placement(ring, byName)
	cluster.SetPlacement(h.cur)
	return h, nil
}

// placement builds the placement snapshot of a ring and its members.
func (h *HashCluster) placement(ring *Ring, byName map[string]*dsos.Daemon) *ringPlacement {
	p := &ringPlacement{ring: ring, repl: h.cfg.Replication, byName: byName}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p.members = append(p.members, byName[name])
	}
	for _, g := range ring.Groups(p.repl) {
		ds := make([]*dsos.Daemon, len(g))
		for i, name := range g {
			ds[i] = byName[name]
		}
		p.groups = append(p.groups, ds)
	}
	return p
}

// withMember returns a copy of the member map with name set to d (nil
// deletes it).
func (p *ringPlacement) withMember(name string, d *dsos.Daemon) map[string]*dsos.Daemon {
	out := make(map[string]*dsos.Daemon, len(p.byName)+1)
	for k, v := range p.byName {
		out[k] = v
	}
	if d != nil {
		out[name] = d
	} else {
		delete(out, name)
	}
	return out
}

// Members returns the sorted member names.
func (h *HashCluster) Members() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.cur.members))
	for i, d := range h.cur.members {
		out[i] = d.Name
	}
	return out
}

// Daemon returns a member by name (nil if absent).
func (h *HashCluster) Daemon(name string) *dsos.Daemon {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur.byName[name]
}

// Grow adds the named shard, built by the factory, and moves to it the
// keys it owns on the grown ring, in one step (see HashCluster).
func (h *HashCluster) Grow(name string) error {
	return h.move(func(cur *ringPlacement) (*ringPlacement, error) {
		if h.cfg.Factory == nil {
			return nil, errors.New("topo: hash cluster has no shard factory; cannot grow")
		}
		if _, ok := cur.byName[name]; ok {
			return nil, fmt.Errorf("topo: member %q already present", name)
		}
		d, err := h.cfg.Factory(name)
		if err != nil {
			return nil, err
		}
		next := cur.ring.Clone()
		if err := next.Add(name); err != nil {
			return nil, err
		}
		return h.placement(next, cur.withMember(name, d)), nil
	})
}

// Shrink drains the named shard into the owners its keys have on the
// shrunk ring and drops it from the cluster, in one step (see
// HashCluster).
func (h *HashCluster) Shrink(name string) error {
	return h.move(func(cur *ringPlacement) (*ringPlacement, error) {
		d := cur.byName[name]
		if d == nil {
			return nil, fmt.Errorf("topo: member %q not present", name)
		}
		if len(cur.members) == 1 {
			return nil, errors.New("topo: cannot remove the last member")
		}
		if !d.Up() {
			return nil, fmt.Errorf("topo: member %q is down; cannot drain it", name)
		}
		next := cur.ring.Clone()
		if err := next.Remove(name); err != nil {
			return nil, err
		}
		return h.placement(next, cur.withMember(name, nil)), nil
	})
}

// move runs one grow or shrink behind the insert barrier: plan builds the
// next placement from the current one, the sources hand off, the ring
// swaps, and every member retains what it owns. If the drain or a handoff
// fails, the ring stays: every member retains by it again, which drops
// the copies already handed off, and the error is returned.
func (h *HashCluster) move(plan func(cur *ringPlacement) (*ringPlacement, error)) error {
	return h.cluster.Rebalance(func(set func(dsos.Placement)) error {
		h.mu.Lock()
		cur := h.cur
		h.mu.Unlock()
		next, err := plan(cur)
		if err != nil {
			return err
		}
		moved, err := handoff(cur, next)
		if err != nil {
			return errors.Join(err, retainOwned(cur))
		}
		h.mu.Lock()
		h.cur = next
		h.moved += moved
		h.migrations++
		h.mu.Unlock()
		set(next)
		return retainOwned(next)
	})
}

// handoff copies, from every member of cur, each object to the owners it
// gains on next, once per (origin, destination), destinations in sorted
// order, each destination's copies as one batch (Daemon.InsertOrigins).
// Nothing is dropped from a source, so a failed handoff loses nothing. It
// returns the number of copies made.
func handoff(cur, next *ringPlacement) (uint64, error) {
	type copyTo struct {
		origin uint64
		dst    string
	}
	pending, origins := map[string][]sos.Object{}, map[string][]uint64{} // by destination
	sent := map[copyTo]bool{}
	for _, d := range cur.members {
		src := d.Name
		if !d.Up() {
			return 0, fmt.Errorf("topo: rebalance: source %s is down", src)
		}
		err := d.IterOrigins(hashIndex, nil, func(o sos.Object, origin uint64) bool {
			key := DarshanKey(hashSchema, o)
			oldOwners := cur.ring.Owners(key, cur.repl)
			if !contains(oldOwners, src) {
				return true // a lingering copy; its owners hand it off
			}
			for _, dst := range next.ring.Owners(key, next.repl) {
				if contains(oldOwners, dst) || (origin != 0 && sent[copyTo{origin, dst}]) {
					continue
				}
				pending[dst], origins[dst] = append(pending[dst], o), append(origins[dst], origin)
				if origin != 0 {
					sent[copyTo{origin, dst}] = true
				}
			}
			return true
		})
		if err != nil {
			return 0, fmt.Errorf("topo: rebalance drain %s: %w", src, err)
		}
	}
	dsts := make([]string, 0, len(pending))
	for dst := range pending {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	moved := uint64(0)
	for _, dst := range dsts {
		d := next.byName[dst]
		if !d.Up() {
			return 0, fmt.Errorf("topo: rebalance: destination %s is down", dst)
		}
		if err := d.InsertOrigins(hashSchema, pending[dst], origins[dst]); err != nil {
			return 0, fmt.Errorf("topo: rebalance handoff into %s: %w", dst, err)
		}
		moved += uint64(len(pending[dst]))
	}
	return moved, nil
}

// retainOwned has every member of p keep exactly the objects it owns on
// p's ring.
func retainOwned(p *ringPlacement) error {
	var errs []error
	for _, d := range p.members {
		name := d.Name
		if _, err := d.RetainWhere(hashIndex, func(o sos.Object, _ uint64) bool { return p.owns(name, o) }); err != nil {
			errs = append(errs, fmt.Errorf("topo: %s retain: %w", name, err))
		}
	}
	return errors.Join(errs...)
}

// Stats snapshots the rebalance counters.
func (h *HashCluster) Stats() RebalanceStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return RebalanceStats{Members: len(h.cur.members), Migrations: h.migrations, Moved: h.moved}
}

// AuditPlacement verifies the ownership invariant a move leaves: every
// stored origin lives on exactly its ring owners — no copy on a shard
// that does not own it, no owner missing its copy, no shard holding an
// origin twice. Returns the violations (empty = clean).
func (h *HashCluster) AuditPlacement() ([]string, error) {
	h.mu.Lock()
	cur := h.cur
	h.mu.Unlock()
	type track struct {
		obj     sos.Object
		holders []string
		dups    int
	}
	origins := map[uint64]*track{}
	var ids []uint64
	for _, d := range cur.members {
		name := d.Name
		seenHere := map[uint64]bool{}
		err := d.IterOrigins(hashIndex, nil, func(o sos.Object, origin uint64) bool {
			if origin == 0 {
				return true
			}
			tr := origins[origin]
			if tr == nil {
				tr = &track{obj: o}
				origins[origin] = tr
				ids = append(ids, origin)
			}
			if seenHere[origin] {
				tr.dups++
			} else {
				seenHere[origin] = true
				tr.holders = append(tr.holders, name)
			}
			return true
		})
		if err != nil {
			return nil, fmt.Errorf("topo: audit %s: %w", name, err)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var violations []string
	for _, origin := range ids {
		tr := origins[origin]
		if tr.dups > 0 {
			violations = append(violations,
				fmt.Sprintf("origin %d stored %d extra times on one shard", origin, tr.dups))
		}
		key := DarshanKey(hashSchema, tr.obj)
		want := append([]string(nil), cur.ring.Owners(key, cur.repl)...)
		sort.Strings(want)
		got := append([]string(nil), tr.holders...)
		sort.Strings(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			violations = append(violations,
				fmt.Sprintf("origin %d (key %q) held by %v, owned by %v", origin, key, got, want))
		}
	}
	return violations, nil
}
