package topo

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

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
	// Factory builds a new shard daemon for BeginAdd (required to grow).
	Factory func(name string) (*dsos.Daemon, error)
	// Clock stamps the event log (nil = zero timestamps; virtual time in
	// the sim zone).
	Clock func() time.Duration
}

// ringPlacement is the hash ring as a dsos.Placement: one immutable
// snapshot of the serving ring, the staged ring (nil unless migrating)
// and the member set. Objects are placed by DarshanKey; every serving
// owner must ack, staged owners that differ are fenced in best-effort.
type ringPlacement struct {
	h       *HashCluster
	ring    *Ring // serving placement
	staged  *Ring // staged placement (nil unless migrating)
	repl    int
	byName  map[string]*dsos.Daemon
	members []*dsos.Daemon   // sorted by name, staged members included
	groups  [][]*dsos.Daemon // the serving ring's owner groups
}

func (p *ringPlacement) Members() []*dsos.Daemon  { return p.members }
func (p *ringPlacement) Groups() [][]*dsos.Daemon { return p.groups }

// Rules: every owner acks with whole-batch admission, origins are always
// stamped (queries dedup fenced and drained copies by them), and there
// is no read repair — a copy on a non-owner is a placement violation.
func (p *ringPlacement) Rules() dsos.Rules { return dsos.Rules{AckAll: true, Stamp: true} }

func (p *ringPlacement) Owners(schema string, obj sos.Object, _ uint64) (ack, fence []*dsos.Daemon) {
	key := DarshanKey(schema, obj)
	serving := p.ring.Owners(key, p.repl)
	ack = make([]*dsos.Daemon, len(serving))
	for i, name := range serving {
		ack[i] = p.byName[name]
	}
	if p.staged != nil {
		for _, name := range p.staged.Owners(key, p.repl) {
			if !contains(serving, name) {
				fence = append(fence, p.byName[name])
			}
		}
	}
	return ack, fence
}

// Fenced records a dual-written copy so the cutover drain never re-copies
// it. A copy landing after the migration ended is not recorded.
func (p *ringPlacement) Fenced(d *dsos.Daemon, origin uint64) {
	h := p.h
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.fenced != nil {
		mark(h.fenced, origin, d.Name)
		h.fencedWrites++
	}
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// mark records dst under origin in a two-level set.
func mark(m map[uint64]map[string]bool, origin uint64, dst string) {
	set := m[origin]
	if set == nil {
		set = map[string]bool{}
		m[origin] = set
	}
	set[dst] = true
}

// HashCluster is the migration layer over a dsos cluster placed by
// consistent hash: it owns the ring, swaps the cluster's placement on
// every membership change, and rebalances live. Inserts and queries go
// through the cluster's one client. A grow/shrink runs in two phases:
//
//	Begin*: the post-rebalance ring is staged. Inserts dual-write: every
//	  serving owner (ack requires all of them) plus, best-effort, the
//	  staged owners that differ — the fence. Fenced origins are recorded
//	  so the drain never re-copies them.
//	Cutover: each shard hands the objects it is about to stop owning to
//	  their staged owners; destinations take them behind the fence (fenced
//	  origins skipped); the ring swap is atomic under the cluster lock;
//	  sources then retain only what they still own (WALs rewritten to
//	  match, so restarts cannot resurrect moved keys). Abort reverts the
//	  staged ring and unwinds fenced copies.
//
// Queries fan out over every member (staged members included) and dedup
// by origin, so a key is readable from whichever side of the fence holds
// it — at every instant of a migration.
type HashCluster struct {
	cfg     HashConfig
	cluster *dsos.Cluster

	mu  sync.Mutex
	cur *ringPlacement // what the cluster currently places by

	pendingAdd    string
	pendingRemove string
	fenced        map[uint64]map[string]bool // origin -> staged dests already written
	debt          map[string]map[uint64]bool // dest -> aborted fenced origins to drop

	migrations   uint64
	aborts       uint64
	moved        uint64 // objects copied by cutover handoffs
	fencedWrites uint64
	log          []TreeEvent
}

// RebalanceStats snapshots the migration counters.
type RebalanceStats struct {
	Members      int
	Migrating    bool
	Migrations   uint64 // completed cutovers
	Aborts       uint64
	Moved        uint64 // objects copied by cutover handoffs
	FencedWrites uint64
	Debt         int // aborted fenced copies not yet dropped (down dests)
}

// NewHashCluster switches the cluster (daemons, schemas and WALs already
// set up) from round-robin to consistent-hash placement over its current
// members.
func NewHashCluster(cfg HashConfig, cluster *dsos.Cluster) (*HashCluster, error) {
	if cfg.Replication <= 0 {
		cfg.Replication = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = func() time.Duration { return 0 }
	}
	h := &HashCluster{cfg: cfg, cluster: cluster, debt: map[string]map[uint64]bool{}}
	ring := NewRing(cfg.Seed, cfg.VNodes)
	byName := map[string]*dsos.Daemon{}
	for _, d := range cluster.Daemons() {
		if err := ring.Add(d.Name); err != nil {
			return nil, err
		}
		byName[d.Name] = d
	}
	h.placeLocked(ring, nil, byName)
	return h, nil
}

// placeLocked publishes a new placement snapshot to the cluster.
func (h *HashCluster) placeLocked(ring, staged *Ring, byName map[string]*dsos.Daemon) {
	p := &ringPlacement{h: h, ring: ring, staged: staged, repl: h.cfg.Replication, byName: byName}
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
	h.cur = p
	h.cluster.SetPlacement(p)
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

func (h *HashCluster) logf(format string, args ...any) {
	h.log = append(h.log, TreeEvent{At: h.cfg.Clock(), Msg: fmt.Sprintf(format, args...)})
}

// Ring returns the serving ring (read-only use).
func (h *HashCluster) Ring() *Ring {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur.ring
}

// Members returns the sorted member names (staged members included).
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

// Migrating reports whether a rebalance is staged but not cut over.
func (h *HashCluster) Migrating() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.cur.staged != nil
}

// BeginAdd stages a grow: the named shard is built by the factory,
// joins queries and the dual-write fence immediately, and owns its key
// ranges after Cutover.
func (h *HashCluster) BeginAdd(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur
	if cur.staged != nil {
		return errors.New("topo: rebalance already in progress")
	}
	if h.cfg.Factory == nil {
		return errors.New("topo: hash cluster has no shard factory; cannot grow")
	}
	if _, ok := cur.byName[name]; ok {
		return fmt.Errorf("topo: member %q already present", name)
	}
	d, err := h.cfg.Factory(name)
	if err != nil {
		return err
	}
	next := cur.ring.Clone()
	if err := next.Add(name); err != nil {
		return err
	}
	h.placeLocked(cur.ring, next, cur.withMember(name, d))
	h.pendingAdd = name
	h.fenced = map[uint64]map[string]bool{}
	h.logf("begin grow +%s (members %d -> %d)", name, len(cur.members), len(h.cur.members))
	return nil
}

// BeginRemove stages a shrink: the named shard keeps serving (it still
// owns its keys) but every insert of a moving key is fenced to the new
// owners, and Cutover drains what remains before the shard leaves.
func (h *HashCluster) BeginRemove(name string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur
	if cur.staged != nil {
		return errors.New("topo: rebalance already in progress")
	}
	d := cur.byName[name]
	if d == nil {
		return fmt.Errorf("topo: member %q not present", name)
	}
	if len(cur.members) == 1 {
		return errors.New("topo: cannot remove the last member")
	}
	if !d.Up() {
		return fmt.Errorf("topo: member %q is down; cannot drain it", name)
	}
	next := cur.ring.Clone()
	if err := next.Remove(name); err != nil {
		return err
	}
	h.placeLocked(cur.ring, next, cur.byName)
	h.pendingRemove = name
	h.fenced = map[uint64]map[string]bool{}
	h.logf("begin shrink -%s (members %d -> %d)", name, len(cur.members), len(cur.members)-1)
	return nil
}

// handoff is one object a cutover moves to a staged owner.
type handoff struct {
	obj    sos.Object
	origin uint64
}

// Cutover completes the staged rebalance: drain, replay, atomic ring
// swap, source cleanup. On error the migration is still staged — the
// caller retries (after restarts) or calls Abort. Runs under the cluster
// lock, so inserts and queries observe either the old world or the new,
// never a half-swapped ring.
func (h *HashCluster) Cutover() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur
	if cur.staged == nil {
		return errors.New("topo: no rebalance in progress")
	}
	repl := cur.repl

	// Drain: walk every source; any object whose staged owners include a
	// member that does not already hold it is handed to that destination.
	// The fence set keeps dual-written (and previously replayed) origins
	// out; drained tracks this pass only, and commits into the fence per
	// destination AFTER that destination's replay succeeds — so a cutover
	// that dies mid-way re-drains exactly the copies that never landed,
	// and only those. Nothing is dropped from a source before the swap,
	// so a failed cutover loses nothing.
	pending := map[string][]handoff{}
	drained := map[uint64]map[string]bool{}
	for _, d := range cur.members {
		src := d.Name
		if !d.Up() {
			return fmt.Errorf("topo: cutover: source %s is down", src)
		}
		err := d.IterOrigins(hashIndex, nil, func(o sos.Object, origin uint64) bool {
			key := DarshanKey(hashSchema, o)
			oldOwners := cur.ring.Owners(key, repl)
			if !contains(oldOwners, src) {
				// A lingering copy (aborted fence debt); the owner drains it.
				return true
			}
			for _, dst := range cur.staged.Owners(key, repl) {
				if dst == src || contains(oldOwners, dst) {
					continue
				}
				if origin != 0 && (h.fenced[origin][dst] || drained[origin][dst]) {
					continue
				}
				pending[dst] = append(pending[dst], handoff{o, origin})
				if origin != 0 {
					mark(drained, origin, dst)
				}
			}
			return true
		})
		if err != nil {
			return fmt.Errorf("topo: cutover drain %s: %w", src, err)
		}
	}

	// Replay behind the fence, destinations in sorted order.
	dsts := make([]string, 0, len(pending))
	for dst := range pending {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	movedNow := uint64(0)
	for _, dst := range dsts {
		d := cur.byName[dst]
		if d == nil || !d.Up() {
			return fmt.Errorf("topo: cutover: destination %s is down", dst)
		}
		for _, ho := range pending[dst] {
			if err := d.InsertOrigin(hashSchema, ho.obj, ho.origin); err != nil {
				return fmt.Errorf("topo: cutover replay into %s: %w", dst, err)
			}
		}
		// Commit this destination's copies into the fence: a retried
		// cutover must not hand them off again.
		for _, ho := range pending[dst] {
			if ho.origin != 0 {
				mark(h.fenced, ho.origin, dst)
			}
		}
		movedNow += uint64(len(pending[dst]))
	}

	// Atomic swap; the removed member leaves the cluster entirely.
	ring := cur.staged
	byName := cur.byName
	if h.pendingRemove != "" {
		byName = cur.withMember(h.pendingRemove, nil)
	}
	h.placeLocked(ring, nil, byName)
	h.pendingAdd, h.pendingRemove = "", ""
	h.fenced = nil
	h.moved += movedNow
	h.migrations++

	// Cleanup: sources retain exactly what they still own.
	for _, d := range h.cur.members {
		name := d.Name
		dropped, err := d.RetainWhere(hashIndex, func(o sos.Object, _ uint64) bool {
			return contains(ring.Owners(DarshanKey(hashSchema, o), repl), name)
		})
		if err != nil {
			return fmt.Errorf("topo: post-cutover cleanup %s: %w", name, err)
		}
		if dropped > 0 {
			h.logf("cutover: %s released %d moved objects", name, dropped)
		}
	}
	h.logf("cutover complete: moved %d objects, ring %v", movedNow, ring.Members())
	return h.settleDebtLocked()
}

// Abort unwinds a staged rebalance: the serving ring stays, fenced
// copies on non-owners are dropped (down destinations become debt,
// settled later via Settle), and a staged grow's shard is discarded.
func (h *HashCluster) Abort() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := h.cur
	if cur.staged == nil {
		return errors.New("topo: no rebalance in progress")
	}
	// Aggregate fenced copies per destination.
	for origin, dests := range h.fenced {
		for dst := range dests {
			if dst == h.pendingAdd {
				continue // the whole shard is being discarded
			}
			set := h.debt[dst]
			if set == nil {
				set = map[uint64]bool{}
				h.debt[dst] = set
			}
			set[origin] = true
		}
	}
	byName := cur.byName
	if h.pendingAdd != "" {
		byName = cur.withMember(h.pendingAdd, nil)
	}
	h.logf("abort rebalance (add=%q remove=%q)", h.pendingAdd, h.pendingRemove)
	h.placeLocked(cur.ring, nil, byName)
	h.pendingAdd, h.pendingRemove = "", ""
	h.fenced = nil
	h.aborts++
	return h.settleDebtLocked()
}

// Settle retries dropping aborted fenced copies from destinations that
// were down when the abort ran — call it once the fleet is restored.
func (h *HashCluster) Settle() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.settleDebtLocked()
}

func (h *HashCluster) settleDebtLocked() error {
	if len(h.debt) == 0 {
		return nil
	}
	dsts := make([]string, 0, len(h.debt))
	for dst := range h.debt {
		dsts = append(dsts, dst)
	}
	sort.Strings(dsts)
	var firstErr error
	for _, dst := range dsts {
		d := h.cur.byName[dst]
		if d == nil {
			delete(h.debt, dst)
			continue
		}
		if !d.Up() {
			continue // retried on the next Settle
		}
		drop := h.debt[dst]
		_, err := d.RetainWhere(hashIndex, func(_ sos.Object, origin uint64) bool {
			return !drop[origin]
		})
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		delete(h.debt, dst)
	}
	return firstErr
}

// Stats snapshots the rebalance counters.
func (h *HashCluster) Stats() RebalanceStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	debt := 0
	for _, set := range h.debt {
		debt += len(set)
	}
	return RebalanceStats{
		Members:      len(h.cur.members),
		Migrating:    h.cur.staged != nil,
		Migrations:   h.migrations,
		Aborts:       h.aborts,
		Moved:        h.moved,
		FencedWrites: h.fencedWrites,
		Debt:         debt,
	}
}

// Events returns the rebalance event log.
func (h *HashCluster) Events() []TreeEvent {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]TreeEvent, len(h.log))
	copy(out, h.log)
	return out
}

// AuditPlacement verifies the post-cutover ownership invariant: every
// stored origin lives on exactly its ring owners — no copy on a shard
// that does not own it, no owner missing its copy, no shard holding an
// origin twice. Returns the violations (empty = clean).
func (h *HashCluster) AuditPlacement() ([]string, error) {
	h.mu.Lock()
	cur := h.cur
	h.mu.Unlock()
	if cur.staged != nil {
		return nil, errors.New("topo: audit during a migration is meaningless; cut over or abort first")
	}
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
