// Package dsos is the Distributed Scalable Object Store layer: a set of
// dsosd daemons, each an independent sos.Container, with sharded ingest and
// parallel queries whose per-daemon result streams are merged in index-key
// order — matching the paper's description ("the DSOS Client API can
// perform parallel queries to all dsosd in a DSOS cluster; the results are
// returned in parallel and sorted based on the index selected by the
// user").
//
// Durability and availability are layered on top of the plain shards:
//
//   - A daemon can carry a write-ahead log (EnableWAL). Every acked insert
//     is logged before the ack, and a crashed daemon (Crash) rebuilds its
//     shard from the log on Restart — so a dsosd outage injected by
//     internal/faults no longer loses the shard.
//   - The cluster can replicate (SetReplication): each insert goes to R
//     successive shards under a cluster-assigned origin id, and queries
//     merge the healthy replicas, deduplicating by origin and re-inserting
//     under-replicated objects into healthy daemons (read repair). A query
//     is only Partial when every replica of some placement group is down.
//
// Where objects go is a Placement strategy (placement.go): round-robin
// over R successive daemons by default, or internal/topo's consistent-hash
// ring. Either way there is one insert path and one query merge, below.
//
// With the defaults (R=1, no WAL) every path below reduces to the original
// sharded behavior.
package dsos

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
)

// ErrCrashed is the fault recorded by Daemon.Crash.
var ErrCrashed = errors.New("dsosd crashed")

// ErrPartial marks a query result that is merged from the healthy replicas
// but may be missing objects whose every replica is unavailable. The
// merged objects are still returned alongside it.
var ErrPartial = errors.New("dsos: partial result (replicas unavailable)")

// PartialError is the concrete error behind ErrPartial: it names not just
// the daemons that failed but the placement groups that went entirely
// dark — the difference between a one-shard blip the merge covered from
// replicas and a lost replica set that is actually hiding data. It
// unwraps to ErrPartial, so errors.Is(err, ErrPartial) keeps working.
type PartialError struct {
	// Failed lists every daemon that could not serve the query.
	Failed []string
	// Groups lists the placement groups (R successive daemons) with every
	// member down. Data placed on such a group is unreadable right now.
	Groups [][]string
}

// Error renders the degradation, groups first: they are the actionable part.
func (e *PartialError) Error() string {
	return fmt.Sprintf("%v: placement groups dark: %v (daemons down: %v)",
		ErrPartial, e.Groups, e.Failed)
}

// Unwrap preserves errors.Is(err, ErrPartial).
func (e *PartialError) Unwrap() error { return ErrPartial }

// Daemon is one dsosd instance: a storage server holding a container shard.
// It is safe for concurrent use.
type Daemon struct {
	Name  string
	mu    sync.Mutex
	cont  *sos.Container
	fault error // non-nil: operations fail (injected dsosd outage)

	wal       *sos.WAL      // nil: no write-ahead logging
	recovered uint64        // WAL records replayed across restarts
	inserts   atomic.Uint64 // acked inserts, cumulative across crashes (obs)

	// Rebuild material captured at crash time: the daemon's schema/index
	// configuration survives a crash (a real dsosd re-reads it at startup),
	// only the in-memory object store is lost.
	contName string
	schemas  []*sos.Schema
	idxSpecs []sos.IndexSpec
}

// NewDaemon creates a daemon around an empty container.
func NewDaemon(name, containerName string) *Daemon {
	return &Daemon{Name: name, cont: sos.NewContainer(containerName), contName: containerName}
}

// Container exposes the underlying container (callers must not mutate it
// concurrently with daemon operations; the query path takes the lock). It
// is nil while the daemon is crashed.
func (d *Daemon) Container() *sos.Container { return d.cont }

// EnableWAL attaches a write-ahead log backed by st. Subsequent inserts
// are logged before they are acked; Restart replays the log. The backing
// must outlive crashes (it models the daemon's disk).
func (d *Daemon) EnableWAL(st sos.WALStore) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.wal = sos.NewWAL(st)
}

// WAL returns the attached write-ahead log (nil when disabled).
func (d *Daemon) WAL() *sos.WAL {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wal
}

// Recovered returns the total number of WAL records replayed by this
// daemon across all restarts.
func (d *Daemon) Recovered() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.recovered
}

// AddSchema registers a schema on this daemon.
func (d *Daemon) AddSchema(s *sos.Schema) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont == nil {
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	if err := d.cont.AddSchema(s); err != nil {
		return err
	}
	d.schemas = append(d.schemas, s)
	return nil
}

// AddIndex declares an index on this daemon.
func (d *Daemon) AddIndex(spec sos.IndexSpec) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont == nil {
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	if _, err := d.cont.AddIndex(spec); err != nil {
		return err
	}
	d.idxSpecs = append(d.idxSpecs, spec)
	return nil
}

// SetFault makes every subsequent Insert and query on this daemon fail
// with err until healed with SetFault(nil) — fault injection for the
// resilience campaigns (a wedged but not crashed dsosd). With the sharded
// client, a retried Insert rotates to the next (healthy) daemon, so
// retry-with-timeout turns a dsosd outage into transparent failover.
func (d *Daemon) SetFault(err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.fault = err
}

// Crash models a dsosd process kill: the in-memory shard is discarded and
// every operation fails until Restart. The write-ahead log (if any) is on
// "disk" and survives. Intended as the crash hook for
// faults.Controller.RegisterCrash.
func (d *Daemon) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont == nil {
		return
	}
	d.rememberConfigLocked()
	d.cont = nil
	d.fault = ErrCrashed
}

// rememberConfigLocked captures the rebuild material from the live
// container when AddSchema/AddIndex never ran — a daemon wrapped around a
// restored container. The schema/index configuration survives a crash or a
// rebuild (a real dsosd re-reads it at startup); only the objects are lost.
func (d *Daemon) rememberConfigLocked() {
	if len(d.schemas) == 0 {
		for _, name := range d.cont.Schemas() {
			d.schemas = append(d.schemas, d.cont.Schema(name))
		}
	}
	if len(d.idxSpecs) == 0 {
		for _, name := range d.cont.Indices() {
			d.idxSpecs = append(d.idxSpecs, d.cont.Index(name).Spec())
		}
	}
	if d.contName == "" {
		d.contName = d.cont.Name
	}
}

// freshContainerLocked builds an empty container configured with the
// remembered schemas and indices.
func (d *Daemon) freshContainerLocked() (*sos.Container, error) {
	cont := sos.NewContainer(d.contName)
	for _, s := range d.schemas {
		if err := cont.AddSchema(s); err != nil {
			return nil, err
		}
	}
	for _, spec := range d.idxSpecs {
		if _, err := cont.AddIndex(spec); err != nil {
			return nil, err
		}
	}
	return cont, nil
}

// Restart models the dsosd coming back: a fresh container is configured
// from the remembered schemas and indices, the write-ahead log is replayed
// into it, and the daemon serves again. Without a WAL the shard restarts
// empty (the pre-durability behavior).
func (d *Daemon) Restart() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont != nil && !errors.Is(d.fault, ErrCrashed) {
		return nil // not crashed; nothing to do
	}
	cont, err := d.freshContainerLocked()
	if err != nil {
		return fmt.Errorf("dsos: %s restart: %w", d.Name, err)
	}
	if d.wal != nil {
		recs, _, err := sos.ReplayWAL(d.wal.Store(), func(schema string, obj sos.Object, origin uint64) error {
			return cont.InsertOrigin(schema, obj, origin)
		})
		if err != nil {
			return fmt.Errorf("dsos: %s restart: %w", d.Name, err)
		}
		d.recovered += uint64(recs)
	}
	d.cont = cont
	d.fault = nil
	return nil
}

// Insert stores one object.
func (d *Daemon) Insert(schema string, obj sos.Object) error {
	return d.InsertOrigin(schema, obj, 0)
}

// InsertOrigin stores one object stamped with a cluster-wide origin id
// (0 = unreplicated). The object is applied to the shard first (so schema
// validation never leaves a poisoned WAL record) and then logged; the
// insert is only acked once both succeed. Crash cannot interleave because
// it takes the same lock.
func (d *Daemon) InsertOrigin(schema string, obj sos.Object, origin uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		return fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
	}
	if d.cont == nil {
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	if err := d.cont.InsertOrigin(schema, obj, origin); err != nil {
		return err
	}
	if d.wal != nil {
		if err := d.wal.Append(schema, obj, origin); err != nil {
			return err
		}
	}
	d.inserts.Add(1)
	return nil
}

// IterOrigins walks the index yielding each object with its origin id,
// under the daemon lock.
func (d *Daemon) IterOrigins(index string, from sos.Key, yield func(sos.Object, uint64) bool) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		return fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
	}
	if d.cont == nil {
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	return d.cont.IterOrigins(index, from, yield)
}

// Count returns the number of objects under schema on this daemon
// (0 while crashed).
func (d *Daemon) Count(schema string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cont == nil {
		return 0
	}
	return d.cont.Count(schema)
}

// RetainWhere rebuilds the shard keeping only the objects keep accepts,
// and rewrites the write-ahead log (if any) to match, so a later restart
// cannot resurrect what was dropped. index must cover the objects being
// retained (any index over the schema does). It returns the number of
// objects dropped. This is the post-cutover cleanup primitive of a shard
// migration: the source retains exactly the keys it still owns.
func (d *Daemon) RetainWhere(index string, keep func(obj sos.Object, origin uint64) bool) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		return 0, fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
	}
	if d.cont == nil {
		return 0, fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	d.rememberConfigLocked()
	ix := d.cont.Index(index)
	if ix == nil {
		return 0, fmt.Errorf("dsos: unknown index %q", index)
	}
	schema := ix.Spec().Schema
	type rec struct {
		obj    sos.Object
		origin uint64
	}
	var kept []rec
	dropped := 0
	if err := d.cont.IterOrigins(index, nil, func(o sos.Object, origin uint64) bool {
		if keep(o, origin) {
			kept = append(kept, rec{o, origin})
		} else {
			dropped++
		}
		return true
	}); err != nil {
		return 0, err
	}
	if dropped == 0 {
		return 0, nil
	}
	cont, err := d.freshContainerLocked()
	if err != nil {
		return 0, fmt.Errorf("dsos: %s retain: %w", d.Name, err)
	}
	for _, r := range kept {
		if err := cont.InsertOrigin(schema, r.obj, r.origin); err != nil {
			return 0, fmt.Errorf("dsos: %s retain: %w", d.Name, err)
		}
	}
	if d.wal != nil {
		st := d.wal.Store()
		switch w := st.(type) {
		case interface{ Truncate(n int) }:
			w.Truncate(0)
		case interface{ Reset(n int64) error }:
			if err := w.Reset(0); err != nil {
				return 0, fmt.Errorf("dsos: %s retain: wal reset: %w", d.Name, err)
			}
		default:
			return 0, fmt.Errorf("dsos: %s retain: WAL store %T cannot be rewritten", d.Name, st)
		}
		wal := sos.NewWAL(st)
		for _, r := range kept {
			if err := wal.Append(schema, r.obj, r.origin); err != nil {
				return 0, fmt.Errorf("dsos: %s retain: wal rewrite: %w", d.Name, err)
			}
		}
		d.wal = wal
	}
	d.cont = cont
	return dropped, nil
}

// rangeQuery collects objects (and their origin ids when asked) with
// index-prefix keys in [from, to).
func (d *Daemon) rangeQuery(index string, from, to sos.Key, withOrigins bool) ([]sos.Object, []uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		return nil, nil, fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
	}
	if d.cont == nil {
		return nil, nil, fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	if withOrigins {
		return d.cont.RangeOrigins(index, from, to)
	}
	objs, err := d.cont.Range(index, from, to)
	return objs, nil, err
}

// Cluster is a DSOS cluster: several dsosd daemons on storage servers,
// and the placement strategy that spreads objects over them.
type Cluster struct {
	mu     sync.Mutex
	place  Placement
	seq    uint64 // objects placed so far (the round-robin cursor)
	origin uint64 // cluster-wide logical insert id allocator
	// Obs plane (set by Instrument): quorum latency for replicated
	// inserts, timed with the injected clock (virtual in the sim zone).
	obsClock  obs.Clock
	quorumLat *obs.Histogram
}

// NewCluster creates n daemons named dsosd0..dsosd(n-1), all hosting the
// same logical container, under unreplicated round-robin placement.
//
//lint:allow hotalloc cluster construction runs once, not per event
func NewCluster(n int, containerName string) *Cluster {
	if n <= 0 {
		panic("dsos: cluster needs at least one daemon")
	}
	daemons := make([]*Daemon, n)
	for i := range daemons {
		daemons[i] = NewDaemon(fmt.Sprintf("dsosd%d", i), containerName)
	}
	return &Cluster{place: newSuccessive(daemons, 1)}
}

// NewClusterFromContainers wraps existing containers (e.g. restored
// snapshots) as a cluster, one daemon per container.
//
//lint:allow hotalloc snapshot restore runs once, not per event
func NewClusterFromContainers(conts []*sos.Container) *Cluster {
	if len(conts) == 0 {
		panic("dsos: cluster needs at least one container")
	}
	daemons := make([]*Daemon, len(conts))
	for i, cont := range conts {
		daemons[i] = &Daemon{Name: fmt.Sprintf("dsosd%d", i), cont: cont, contName: cont.Name}
	}
	return &Cluster{place: newSuccessive(daemons, 1)}
}

// Placement returns the current placement strategy.
func (c *Cluster) Placement() Placement {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.place
}

// SetPlacement swaps the placement strategy. Inserts and queries already
// planned finish under the placement they started with.
func (c *Cluster) SetPlacement(p Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.place = p
}

// Daemons returns the cluster members.
func (c *Cluster) Daemons() []*Daemon { return c.Placement().Members() }

// SetReplication selects round-robin placement at replication factor R
// over the current members: each insert is written to R successive
// daemons. R is clamped to [1, len(daemons)]. R=1 (the default) is the
// original unreplicated sharding.
func (c *Cluster) SetReplication(r int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.place = newSuccessive(c.place.Members(), r)
}

// Replication returns the replication factor (the owner-group size).
func (c *Cluster) Replication() int { return len(c.Placement().Groups()[0]) }

// EnableWAL attaches a write-ahead log to every daemon. mk builds the
// backing for a daemon name; nil uses a fresh in-memory MemWAL per daemon
// (the simulation's virtual disk).
func (c *Cluster) EnableWAL(mk func(daemonName string) sos.WALStore) {
	for _, d := range c.Daemons() {
		var st sos.WALStore
		if mk != nil {
			st = mk(d.Name)
		} else {
			st = sos.NewMemWAL()
		}
		d.EnableWAL(st)
	}
}

// AddSchema registers the schema on every daemon.
func (c *Cluster) AddSchema(s *sos.Schema) error {
	for _, d := range c.Daemons() {
		if err := d.AddSchema(s); err != nil {
			return err
		}
	}
	return nil
}

// AddIndex declares the index on every daemon.
func (c *Cluster) AddIndex(spec sos.IndexSpec) error {
	for _, d := range c.Daemons() {
		if err := d.AddIndex(spec); err != nil {
			return err
		}
	}
	return nil
}

// Client is a DSOS client session.
type Client struct {
	c *Cluster
}

// Connect returns a client for the cluster.
func Connect(c *Cluster) *Client { return &Client{c: c} }

// Cluster returns the cluster this client is connected to.
func (cl *Client) Cluster() *Cluster { return cl.c }

// Insert places one object. See InsertBatch.
func (cl *Client) Insert(schema string, obj sos.Object) error {
	return cl.InsertBatch(schema, []sos.Object{obj})
}

// owners is one object's planned destinations.
type owners struct{ ack, fence []*Daemon }

// InsertBatch places the objects with a single reservation: the insert
// sequence (and the origin ids, when the placement stamps them) advance
// once for the whole batch, so each object lands exactly where a sequence
// of Insert calls would have put it — batched and unbatched ingest
// produce identical clusters.
//
// The placement's rules pick the ack rule. Any-replica: an object is
// acked when at least one of its daemons stored it, and the first error
// is returned once every remaining object has been attempted. AckAll:
// every owner of every object must be up before anything is written, an
// object is acked only when all its owners stored it, and the first
// write error ends the batch. Fence daemons get a best-effort copy
// either way.
func (cl *Client) InsertBatch(schema string, objs []sos.Object) error {
	if len(objs) == 0 {
		return nil
	}
	c := cl.c
	c.mu.Lock()
	p := c.place
	rules := p.Rules()
	seq := c.seq
	var plan []owners
	if rules.AckAll {
		// Admission runs under the cluster lock, so it sees one placement
		// and a refused batch consumes no origin ids.
		var err error
		if plan, err = admit(p, schema, objs, seq); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.seq += uint64(len(objs))
	var origin uint64
	if rules.Stamp {
		origin = c.origin
		c.origin += uint64(len(objs))
	}
	clock, quorum := c.obsClock, c.quorumLat
	c.mu.Unlock()

	var firstErr error
	for k, obj := range objs {
		var to owners
		if plan != nil {
			to = plan[k]
		} else {
			to.ack, to.fence = p.Owners(schema, obj, seq+uint64(k))
		}
		var id uint64
		if rules.Stamp {
			id = origin + uint64(k) + 1
		}
		timed := clock != nil && len(to.ack) > 1
		var q0 time.Duration
		if timed {
			q0 = clock()
		}
		acked := 0
		var objErr error
		for _, d := range to.ack {
			if err := d.InsertOrigin(schema, obj, id); err != nil {
				if rules.AckAll {
					return err
				}
				if objErr == nil {
					objErr = err
				}
				continue
			}
			acked++
		}
		if timed {
			quorum.Observe(uint64(clock() - q0))
		}
		if acked == 0 && firstErr == nil {
			firstErr = objErr
		}
		for _, d := range to.fence {
			// A fence daemon that misses its copy is covered by the
			// migration's drain.
			if d.InsertOrigin(schema, obj, id) == nil {
				p.Fenced(d, id)
			}
		}
	}
	return firstErr
}

// admit plans a whole batch and refuses it unless every ack daemon of
// every object is up.
func admit(p Placement, schema string, objs []sos.Object, seq uint64) ([]owners, error) {
	plan := make([]owners, len(objs))
	for k, obj := range objs {
		ack, fence := p.Owners(schema, obj, seq+uint64(k))
		if len(ack) == 0 {
			return nil, errors.New("dsos: placement has no owner for the object")
		}
		for _, d := range ack {
			if !d.Up() {
				return nil, fmt.Errorf("dsos: owner %s is down; batch refused", d.Name)
			}
		}
		plan[k] = owners{ack, fence}
	}
	return plan, nil
}

// Count sums object counts across daemons. With replication each object
// is counted once per stored replica.
func (cl *Client) Count(schema string) int {
	total := 0
	for _, d := range cl.c.Daemons() {
		total += d.Count(schema)
	}
	return total
}

// QueryInfo describes how degraded a query result is.
type QueryInfo struct {
	// Failed lists the daemons that could not serve the query.
	Failed []string
	// Partial is true when the result may be missing objects: with R=1 any
	// failed daemon implies missing data; with R>1 only when a whole owner
	// group is down.
	Partial bool
	// LostGroups lists each owner group whose every member failed — the
	// groups whose data the merge could not see. Empty when Partial is
	// false.
	LostGroups [][]string
	// Repaired counts objects re-inserted into healthy daemons by read
	// repair (under-replicated origins found during the merge).
	Repaired int
}

// Query runs the range query on every daemon in parallel and merges the
// per-daemon (already index-ordered) results into one stream ordered by
// the index key. from/to are prefixes of the index attributes; to is
// exclusive and nil bounds are open.
//
// Faulted daemons no longer fail the whole query: the merge covers the
// healthy replicas and the error is ErrPartial (alongside the merged
// objects) only when data may actually be missing.
func (cl *Client) Query(index string, from, to sos.Key) ([]sos.Object, error) {
	objs, info, err := cl.QueryEx(index, from, to)
	if err != nil {
		return nil, err
	}
	if info.Partial {
		return objs, &PartialError{Failed: info.Failed, Groups: info.LostGroups}
	}
	return objs, nil
}

// QueryEx is Query with the degradation report. It fans out over every
// member of the placement (a migration's staged members included, so a
// key is found on whichever side of the fence holds it) and dedups
// stamped objects by origin. The returned error is only non-nil for
// structural problems (unknown index); availability problems are
// reported through QueryInfo.
func (cl *Client) QueryEx(index string, from, to sos.Key) ([]sos.Object, QueryInfo, error) {
	p := cl.c.Placement()
	members := p.Members()
	rules := p.Rules()

	lists := make([][]sos.Object, len(members))
	origins := make([][]uint64, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i, d := range members {
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			lists[i], origins[i], errs[i] = d.rangeQuery(index, from, to, rules.Stamp)
		}(i, d)
	}
	wg.Wait()

	var info QueryInfo
	var failed map[*Daemon]bool
	total := 0
	for i, err := range errs {
		if err != nil {
			if failed == nil {
				failed = map[*Daemon]bool{}
			}
			failed[members[i]] = true
			info.Failed = append(info.Failed, members[i].Name)
			continue
		}
		total += len(lists[i])
	}
	if failed != nil {
		info.LostGroups = lostGroups(p.Groups(), func(d *Daemon) bool { return failed[d] })
		info.Partial = len(info.LostGroups) > 0
	}

	keyAttrs, schema, err := indexKey(members, index)
	if err != nil {
		return nil, info, err
	}
	merged, seen := mergeOrdered(lists, origins, keyAttrs, total)
	if rules.Repair {
		info.Repaired = readRepair(members, schema, seen, failed, len(p.Groups()[0]))
	}
	return merged, info, nil
}

// lostGroups returns the owner groups whose every member is down — the
// only configuration that can hide data from the merge — as member names.
func lostGroups(groups [][]*Daemon, down func(*Daemon) bool) [][]string {
	var out [][]string
	for _, g := range groups {
		allDown := true
		for _, d := range g {
			if !down(d) {
				allDown = false
				break
			}
		}
		if !allDown {
			continue
		}
		names := make([]string, len(g))
		for i, d := range g {
			names[i] = d.Name
		}
		out = append(out, names)
	}
	return out
}

// readRepair re-inserts under-replicated objects: every origin that the
// merge saw on fewer than repl healthy daemons is copied (in ascending
// member order) to healthy daemons that lack it, until repl replicas
// exist. Returns the number of replica copies written.
func readRepair(members []*Daemon, schema string, seen map[uint64]*originTrack, failed map[*Daemon]bool, repl int) int {
	// Deterministic order: ascending origin id.
	ids := make([]uint64, 0, len(seen))
	for o, tr := range seen {
		if o != 0 && tr.copies < repl {
			ids = append(ids, o)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	repaired := 0
	for _, o := range ids {
		tr := seen[o]
		need := repl - tr.copies
		for i, d := range members {
			if need == 0 {
				break
			}
			if failed[d] || tr.on[i] {
				continue
			}
			if err := d.InsertOrigin(schema, tr.obj, o); err != nil {
				continue
			}
			repaired++
			need--
		}
	}
	return repaired
}

// indexKey resolves an index, via the first live member, to the attribute
// positions of its key and the schema it is defined over.
func indexKey(members []*Daemon, index string) (attrs []int, schema string, err error) {
	for _, d := range members {
		d.mu.Lock()
		if d.cont == nil {
			d.mu.Unlock()
			continue
		}
		ix := d.cont.Index(index)
		if ix == nil {
			d.mu.Unlock()
			return nil, "", fmt.Errorf("dsos: unknown index %q", index)
		}
		spec := ix.Spec()
		sch := d.cont.Schema(spec.Schema)
		attrs = make([]int, len(spec.Attrs))
		for i, a := range spec.Attrs {
			attrs[i] = sch.AttrIndex(a)
		}
		d.mu.Unlock()
		return attrs, spec.Schema, nil
	}
	return nil, "", fmt.Errorf("dsos: no live daemon to resolve index %q", index)
}

// DistinctJobs returns the sorted distinct job ids present in the darshan
// schema, discovered by index hopping (seek to job+1 after each hit) so the
// cost is O(jobs x log n) rather than a full scan. Crashed daemons are
// skipped.
//
//lint:allow hotalloc query-side index hopping, two keys per job not per event
func (cl *Client) DistinctJobs() ([]int64, error) {
	seen := map[int64]bool{}
	for _, d := range cl.c.Daemons() {
		var from sos.Key
		for {
			var job int64
			found := false
			d.mu.Lock()
			if d.cont == nil {
				d.mu.Unlock()
				break
			}
			err := d.cont.Iter("job_rank_time", from, func(o sos.Object) bool {
				job = o[ColJobID].(int64)
				found = true
				return false
			})
			d.mu.Unlock()
			if err != nil {
				return nil, err
			}
			if !found {
				break
			}
			seen[job] = true
			from = sos.Key{job + 1}
		}
	}
	out := make([]int64, 0, len(seen))
	for j := range seen {
		out = append(out, j)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// originTrack records where the merge saw one origin.
type originTrack struct {
	obj    sos.Object
	on     []bool // per-daemon presence
	copies int
}

// mergeOrdered k-way merges index-ordered object lists by their key
// attributes using a binary heap: O(total log k). When origin lists are
// provided, replicas of the same origin are emitted once and their
// placement is tracked for read repair.
func mergeOrdered(lists [][]sos.Object, origins [][]uint64, keyAttrs []int, total int) ([]sos.Object, map[uint64]*originTrack) {
	keyOf := func(o sos.Object) sos.Key {
		k := make(sos.Key, 0, len(keyAttrs))
		for _, a := range keyAttrs {
			k = append(k, o[a])
		}
		return k
	}
	withOrigins := false
	for _, og := range origins {
		if og != nil {
			withOrigins = true
			break
		}
	}
	var seen map[uint64]*originTrack
	if withOrigins {
		seen = make(map[uint64]*originTrack, total)
	}
	h := &mergeHeap{}
	for i, lst := range lists {
		if len(lst) > 0 {
			h.items = append(h.items, mergeItem{key: keyOf(lst[0]), list: i, seq: i})
		}
	}
	heap.Init(h)
	out := make([]sos.Object, 0, total)
	cursors := make([]int, len(lists))
	for h.Len() > 0 {
		it := h.items[0]
		lst := lists[it.list]
		pos := cursors[it.list]
		obj := lst[pos]
		emit := true
		if withOrigins {
			var o uint64
			if og := origins[it.list]; og != nil {
				o = og[pos]
			}
			if o != 0 {
				tr := seen[o]
				if tr == nil {
					tr = &originTrack{obj: obj, on: make([]bool, len(lists))}
					seen[o] = tr
				} else {
					emit = false
				}
				if !tr.on[it.list] {
					tr.on[it.list] = true
					tr.copies++
				}
			}
		}
		if emit {
			out = append(out, obj)
		}
		cursors[it.list]++
		if cursors[it.list] < len(lst) {
			h.items[0] = mergeItem{key: keyOf(lst[cursors[it.list]]), list: it.list, seq: it.list}
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, seen
}

type mergeItem struct {
	key  sos.Key
	list int
	seq  int // stable tiebreak: lower daemon index first
}

type mergeHeap struct{ items []mergeItem }

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	if c := sos.CompareKeys(h.items[i].key, h.items[j].key); c != 0 {
		return c < 0
	}
	return h.items[i].seq < h.items[j].seq
}
func (h *mergeHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *mergeHeap) Push(x any)    { h.items = append(h.items, x.(mergeItem)) }
func (h *mergeHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
