// Package dsos is the Distributed Scalable Object Store layer: a set of
// dsosd daemons, each an independent sos.Container, with sharded ingest and
// queries over every daemon whose index scans are merged, as they stream,
// in index-key order (cursor.go) — matching the paper's description ("the
// DSOS Client API can perform parallel queries to all dsosd in a DSOS
// cluster; the results are returned in parallel and sorted based on the
// index selected by the user").
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
// ring. Either way there is one insert path and one query merge (the
// Cursor in cursor.go).
//
// With the defaults (R=1, no WAL) every path below reduces to the original
// sharded behavior.
package dsos

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"darshanldms/internal/jsonmsg"
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

// EnableWAL attaches a write-ahead log backed by st, still empty (RecoverWAL
// reopens a log). Subsequent inserts are logged before they are acked;
// Restart replays the log. The backing must outlive crashes (the disk).
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

// SetFault makes every subsequent Insert and query on this daemon fail
// with err until healed with SetFault(nil) — fault injection for the
// resilience campaigns (a wedged but not crashed dsosd). With the sharded
// client, a retried Insert rotates to the next (healthy) daemon, so
// bounded retry turns a dsosd outage into transparent failover.
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
	if err == nil && d.wal != nil {
		_, err = d.replayLocked(cont, d.wal.Store(), math.MaxUint64, math.MaxUint64)
	}
	if err != nil {
		return fmt.Errorf("dsos: %s restart: %w", d.Name, err)
	}
	d.cont, d.fault = cont, nil
	return nil
}

// Insert stores one object.
func (d *Daemon) Insert(schema string, obj sos.Object) error {
	return d.InsertOrigin(schema, obj, 0)
}

// InsertOrigin stores one object stamped with a cluster-wide origin id
// (0 = unreplicated): InsertOrigins of one row.
func (d *Daemon) InsertOrigin(schema string, obj sos.Object, origin uint64) error {
	return d.InsertOrigins(schema, []sos.Object{obj}, []uint64{origin})
}

// InsertOrigins stores objs, each stamped with its origins entry, as one
// share (insertShare): under one lock, logged as one untagged batch. A
// row that fails its check fails alone; the error is the first failure.
func (d *Daemon) InsertOrigins(schema string, objs []sos.Object, origins []uint64) error {
	sh := share{objs: objs, ids: origins}
	d.insertShare(schema, &sh, 0)
	for i := range objs {
		if err := sh.rowErr(i); err != nil {
			return err
		}
	}
	return nil
}

// insertShare stores one daemon's share of a batch under one lock: every
// row is checked against the schema, the rows that pass are logged as one
// record tagged token, and only then applied — so a checked row never
// leaves a poisoned log record, and a failed log write applies nothing. A
// row that fails the check fails alone (sh.errs); a share the daemon
// cannot take at all — down, or the log write failed — sets sh.err and
// stores none of it. Crash cannot interleave because it takes the same
// lock.
func (d *Daemon) insertShare(schema string, sh *share, token uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		sh.err = fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
		return
	}
	if d.cont == nil {
		sh.err = fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
		return
	}
	for i, obj := range sh.objs {
		if err := d.cont.Check(schema, obj); err != nil {
			if sh.errs == nil {
				sh.errs = make([]error, len(sh.objs))
			}
			sh.errs[i] = err
		}
	}
	objs, ids := sh.objs, sh.ids
	if sh.errs != nil { // log and apply only the rows that pass
		objs, ids = nil, nil
		for i, err := range sh.errs {
			if err == nil {
				objs, ids = append(objs, sh.objs[i]), append(ids, sh.ids[i])
			}
		}
	}
	if len(objs) == 0 {
		return
	}
	if d.wal != nil {
		if err := d.wal.AppendBatch(schema, objs, ids, token); err != nil {
			sh.err = err
			return
		}
	}
	for i, obj := range objs {
		d.cont.InsertChecked(schema, obj, ids[i])
	}
	sh.stored = len(objs)
	d.inserts.Add(uint64(len(objs)))
}

// Snapshot writes the daemon's shard to w in sos.Container.Snapshot's
// format. The daemon lock is held only to freeze the contents — O(schemas)
// work — and the encoding and compression run outside it, so ingest never
// waits on gzip.
func (d *Daemon) Snapshot(w io.Writer) error {
	d.mu.Lock()
	if d.cont == nil {
		d.mu.Unlock()
		return fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	f := d.cont.Freeze()
	d.mu.Unlock()
	return f.Snapshot(w)
}

// RecoverWAL rebuilds the daemon's shard from the log in st up to floor
// (sos.ReplayWALTo), cuts the log back to what it replayed, and attaches
// it for new appends. last is the highest token the log may carry: a batch
// past the floor tagged above last was written against another
// incarnation of whatever issues the tokens, and RecoverWAL refuses it
// before cutting anything. With floor and last at math.MaxUint64 it is the
// plain replay, up to a torn tail.
func (d *Daemon) RecoverWAL(st sos.WALStore, floor, last uint64) (sos.WALReplay, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	r, err := d.replayLocked(d.cont, st, floor, last)
	if err != nil {
		return r, fmt.Errorf("dsos: %s recover: %w", d.Name, err)
	}
	return r, nil
}

// replayLocked is how Restart and RecoverWAL reopen a log: it replays st
// into cont up to floor, refuses a log tagged past last, cuts the log back
// to what it applied, and appends behind that from the replay's dictionary.
func (d *Daemon) replayLocked(cont *sos.Container, st sos.WALStore, floor, last uint64) (sos.WALReplay, error) {
	if cont == nil {
		return sos.WALReplay{}, ErrCrashed
	}
	r, err := sos.ReplayWALTo(st, floor, cont.InsertOrigin)
	if err != nil {
		return r, err
	}
	if r.Above > last {
		return r, fmt.Errorf("the log holds a batch tagged %d, past the last token %d: log and token source are from different incarnations", r.Above, last)
	}
	if err := sos.Truncate(st, r.Consumed); err != nil {
		return r, err
	}
	d.wal = sos.ResumeWAL(st, r)
	d.recovered += uint64(r.Rows)
	return r, nil
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
// objects dropped. This is the cleanup primitive of a shard migration:
// the source retains exactly the keys it still owns.
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
	var kept []sos.Object
	var origins []uint64
	dropped := 0
	if err := d.cont.IterOrigins(index, nil, func(o sos.Object, origin uint64) bool {
		if keep(o, origin) {
			kept, origins = append(kept, o), append(origins, origin)
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
	for i, o := range kept {
		if err := cont.InsertOrigin(schema, o, origins[i]); err != nil {
			return 0, fmt.Errorf("dsos: %s retain: %w", d.Name, err)
		}
	}
	if d.wal != nil { // a fresh log: a new dictionary, one untagged batch
		st := d.wal.Store()
		if err := sos.Truncate(st, 0); err != nil {
			return 0, fmt.Errorf("dsos: %s retain: %w", d.Name, err)
		}
		wal := sos.NewWAL(st)
		if err := wal.AppendBatch(schema, kept, origins, 0); err != nil {
			return 0, fmt.Errorf("dsos: %s retain: wal rewrite: %w", d.Name, err)
		}
		d.wal = wal
	}
	d.cont = cont
	return dropped, nil
}

// Cluster is a DSOS cluster: several dsosd daemons on storage servers,
// and the placement strategy that spreads objects over them.
type Cluster struct {
	mu     sync.Mutex
	place  Placement
	seq    uint64 // objects placed so far (the round-robin cursor)
	origin uint64 // cluster-wide logical insert id allocator
	// barrier: an insert holds the read side from plan through its last
	// share write, a placement swap the write side. It is not mu, so
	// queries never wait behind an insert's writes.
	barrier sync.RWMutex
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

// SetPlacement swaps the placement strategy behind the insert barrier.
// Queries already open finish under the placement they started with.
func (c *Cluster) SetPlacement(p Placement) {
	c.barrier.Lock()
	defer c.barrier.Unlock()
	c.setPlacement(p)
}

func (c *Cluster) setPlacement(p Placement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.place = p
}

// Rebalance runs move behind the insert barrier: inserts in flight finish
// first, and none is planned until move returns. move swaps the placement
// through set; queries keep running and follow each swap. move writes to
// daemons directly: an insert through a Client would wait for it forever.
func (c *Cluster) Rebalance(move func(set func(Placement)) error) error {
	c.barrier.Lock()
	defer c.barrier.Unlock()
	return move(c.setPlacement)
}

// Daemons returns the cluster members.
func (c *Cluster) Daemons() []*Daemon { return c.Placement().Members() }

// SetReplication selects round-robin placement at replication factor R
// over the current members: each insert is written to R successive
// daemons. R is clamped to [1, len(daemons)]. R=1 (the default) is the
// original unreplicated sharding.
func (c *Cluster) SetReplication(r int) { c.SetPlacement(newSuccessive(c.Daemons(), r)) }

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

// Client is a DSOS client session. It is safe for concurrent use.
type Client struct {
	c       *Cluster
	busy    atomic.Bool // scratch is taken
	scratch batch       // one insert's scratch at a time; a concurrent insert brings its own
}

// Connect returns a client for the cluster.
func Connect(c *Cluster) *Client { return &Client{c: c} }

// Cluster returns the cluster this client is connected to.
func (cl *Client) Cluster() *Cluster { return cl.c }

// Insert places one object. See InsertBatch.
func (cl *Client) Insert(schema string, obj sos.Object) error {
	return cl.InsertBatch(schema, []sos.Object{obj})
}

// ErrNothingWritten marks a failed insert that stored nothing anywhere —
// a batch refused at admission, or one every daemon turned away — so
// retrying all of it cannot duplicate an object. errors.Is finds it
// beside the cause, whose text is unchanged.
var ErrNothingWritten = errors.New("dsos: nothing written")

type nothingWritten struct{ error }

func (e nothingWritten) Unwrap() []error { return []error{e.error, ErrNothingWritten} }

// InsertBatch places the objects with a single reservation: the insert
// sequence (and the origin ids, when the placement stamps them) advance
// once for the whole batch, so each object lands exactly where a sequence
// of Insert calls would have put it — batched and unbatched ingest
// produce identical clusters. The objects are grouped by owner daemon in
// first-seen order, and each daemon stores its share under one lock with
// one log record (Daemon.insertShare), seeing its rows in batch order.
//
// The placement's rules pick the ack rule. Any-replica: an object is
// acked when at least one of its daemons stored it, and the first error
// (in object order) is returned once every share has been attempted.
// AckAll: every owner of every object must be up before anything is
// written, an object is acked only when all its owners stored it, and the
// first failed share ends the batch.
func (cl *Client) InsertBatch(schema string, objs []sos.Object) error {
	return cl.InsertTagged(schema, objs, 0)
}

// InsertTagged is InsertBatch with every log record it writes tagged
// token: a durable ingest stream's commit mark, which lets a restart cut
// each shard log back to what the stream settled (Daemon.RecoverWAL).
// InsertBatch is the untagged case, token 0. It holds the insert barrier
// from plan through its last share write.
func (cl *Client) InsertTagged(schema string, objs []sos.Object, token uint64) error {
	if len(objs) == 0 {
		return nil
	}
	b := &batch{}
	if cl.busy.CompareAndSwap(false, true) {
		b = &cl.scratch
		defer cl.busy.Store(false)
	}
	c := cl.c
	c.barrier.RLock()
	defer c.barrier.RUnlock()
	c.mu.Lock()
	p := c.place
	rules := p.Rules()
	// Planning runs under the cluster lock, so AckAll admission sees one
	// placement and a refused batch consumes no sequence or origin ids.
	if err := b.plan(p, schema, objs, c.seq, c.origin, rules); err != nil {
		c.mu.Unlock()
		return nothingWritten{err}
	}
	c.seq += uint64(len(objs))
	if rules.Stamp {
		c.origin += uint64(len(objs))
	}
	clock, quorum := c.obsClock, c.quorumLat
	c.mu.Unlock()
	if b.hold != nil {
		b.hold()
	}

	var q0 time.Duration
	if clock != nil {
		q0 = clock()
	}
	stored := false
	for i := range b.shares {
		sh := &b.shares[i]
		sh.d.insertShare(schema, sh, token)
		if clock != nil {
			sh.done = clock()
		}
		stored = stored || sh.stored > 0
		if !rules.AckAll {
			continue
		}
		if err := sh.shareErr(); err != nil {
			b.settle(b.shares[:i+1])
			if !stored {
				return nothingWritten{err}
			}
			return err
		}
	}
	b.settle(b.shares)
	unacked := false
	for k := range b.objs {
		o := &b.objs[k]
		if clock != nil && o.owners > 1 {
			quorum.Observe(uint64(o.last - q0))
		}
		unacked = unacked || o.acked == 0
	}
	if !unacked {
		return nil
	}
	err := b.firstErr()
	if err != nil && !stored {
		return nothingWritten{err}
	}
	return err
}

// batch is the scratch of one InsertTagged call, reused by the next, so a
// steady-state insert allocates nothing of its own.
type batch struct {
	shares []share     // one per owner daemon, in first-seen order
	objs   []objResult // one per object
	hold   func()      // test seam: runs between plan and the first write (nil in production)
}

// share is one daemon's part of a batch: its rows in batch order.
type share struct {
	d      *Daemon
	objs   []sos.Object
	ids    []uint64 // each row's origin id (0 unstamped)
	rows   []shareRow
	errs   []error // nil unless a row failed its check: each row's verdict
	err    error   // the whole share failed: none of it was stored
	stored int     // rows stored
	done   time.Duration
}

// shareRow places a share's row in its batch: the object it copies, and
// its daemon's position among that object's owners.
type shareRow struct{ k, pos int32 }

// objResult is one object's outcome across the shares holding it.
type objResult struct {
	owners int           // owners it was written to
	acked  int           // owners that stored it
	last   time.Duration // when its last share finished
}

// rowErr is row i's verdict.
func (sh *share) rowErr(i int) error {
	switch {
	case sh.err != nil:
		return sh.err
	case sh.errs != nil:
		return sh.errs[i]
	}
	return nil
}

// shareErr is the first failure among the share's rows.
func (sh *share) shareErr() error {
	for i := range sh.rows {
		if err := sh.rowErr(i); err != nil {
			return err
		}
	}
	return nil
}

// plan groups the objects into shares by owner daemon. With AckAll it
// refuses the batch unless every owner of every object is up.
func (b *batch) plan(p Placement, schema string, objs []sos.Object, seq, origin uint64, rules Rules) error {
	if b.shares == nil {
		b.shares = make([]share, 0, len(p.Members()))
	}
	b.shares = b.shares[:0]
	if cap(b.objs) < len(objs) {
		b.objs = make([]objResult, len(objs))
	}
	b.objs = b.objs[:len(objs)]
	for k, obj := range objs {
		owners := p.Owners(schema, obj, seq+uint64(k))
		if rules.AckAll {
			if len(owners) == 0 {
				return errors.New("dsos: placement has no owner for the object")
			}
			for _, d := range owners {
				if !d.Up() {
					return fmt.Errorf("dsos: owner %s is down; batch refused", d.Name)
				}
			}
		}
		var id uint64
		if rules.Stamp {
			id = origin + uint64(k) + 1
		}
		b.objs[k] = objResult{owners: len(owners)}
		for j, d := range owners {
			b.shareOf(d, len(objs)).add(obj, id, shareRow{k: int32(k), pos: int32(j)})
		}
	}
	return nil
}

// shareOf returns d's share, opening one at d's first row: on a slot whose
// buffers an earlier batch grew, or on a new one sized for n rows, the
// most a share of this batch can hold.
func (b *batch) shareOf(d *Daemon, n int) *share {
	for i := range b.shares {
		if b.shares[i].d == d {
			return &b.shares[i]
		}
	}
	if len(b.shares) < cap(b.shares) {
		b.shares = b.shares[:len(b.shares)+1]
	} else {
		b.shares = append(b.shares, share{})
	}
	sh := &b.shares[len(b.shares)-1]
	if sh.objs == nil {
		sh.objs = make([]sos.Object, 0, n)
		sh.ids = make([]uint64, 0, n)
		sh.rows = make([]shareRow, 0, n)
	}
	sh.d = d
	sh.objs = sh.objs[:0]
	sh.ids = sh.ids[:0]
	sh.rows = sh.rows[:0]
	sh.errs, sh.err = nil, nil
	sh.stored, sh.done = 0, 0
	return sh
}

func (sh *share) add(obj sos.Object, id uint64, r shareRow) {
	sh.objs = append(sh.objs, obj)
	sh.ids = append(sh.ids, id)
	sh.rows = append(sh.rows, r)
}

// settle folds the attempted shares into per-object outcomes.
func (b *batch) settle(shares []share) {
	for i := range shares {
		sh := &shares[i]
		for r, row := range sh.rows {
			o := &b.objs[row.k]
			if sh.rowErr(r) == nil {
				o.acked++
			}
			o.last = max(o.last, sh.done)
		}
	}
}

// firstErr is the failure of the first object no owner stored: the error
// of its earliest failing owner.
func (b *batch) firstErr() error {
	for k := range b.objs {
		if b.objs[k].acked > 0 {
			continue
		}
		var err error
		pos := int32(math.MaxInt32)
		for i := range b.shares {
			sh := &b.shares[i]
			for r, row := range sh.rows {
				if int(row.k) == k && row.pos < pos {
					if e := sh.rowErr(r); e != nil {
						err, pos = e, row.pos
					}
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
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
				job = o.Int(jsonmsg.ColJobID)
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
