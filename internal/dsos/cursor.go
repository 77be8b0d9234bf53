package dsos

import (
	"bytes"
	"container/heap"
	"context"
	"fmt"
	"slices"
	"sort"

	"darshanldms/internal/sos"
)

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

// Query runs the range query on every daemon and merges the per-daemon
// index-ordered scans into one stream ordered by the index key. from/to
// are prefixes of the index attributes; to is exclusive and nil bounds are
// open.
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

// QueryEx is Query with the degradation report: it drains an unlimited
// Cursor, so read repair runs at the end. The returned error is only
// non-nil for structural problems (unknown index, a bound of the wrong
// type); availability problems are reported through QueryInfo.
func (cl *Client) QueryEx(index string, from, to sos.Key) ([]sos.Object, QueryInfo, error) {
	cur, err := cl.Cursor(context.Background(), index, from, to, 0)
	if err != nil {
		return nil, QueryInfo{}, err
	}
	out := []sos.Object{}
	for cur.Next() {
		out = append(out, cur.Object())
	}
	return out, cur.Info(), cur.Err()
}

// queryChunk is how many rows a cursor copies out of one member per visit,
// under that member's lock, which it releases between visits.
const queryChunk = 256

// Cursor is the one read path of a DSOS query: a lazy k-way merge of every
// member's index scan, in the order of the index queried.
//
// Each member is read in chunks of queryChunk rows under that daemon's
// lock. The lock is released between chunks, and the next chunk resumes
// just past the last tree key taken, so inserts interleave with a long
// scan. Each member is therefore read-committed per chunk: a row inserted
// during the scan appears only if its key sorts past the member's
// position. Equal index keys merge in member order, and under a
// placement that stamps origins each replicated object is emitted once.
//
// Info is complete for the members that failed the first chunk as soon as
// the cursor is open, before any row. A member that fails between chunks,
// or restarts onto a rebuilt container, is added when the merge next needs
// it. A cursor holds no lock and starts no goroutine, so abandoning one
// costs nothing. It is not safe for concurrent use.
type Cursor struct {
	index    string
	from, to sos.Key
	limit    int
	chunk    int
	ctx      context.Context
	ctxDone  <-chan struct{}
	groups   [][]*Daemon
	scans    []memberScan
	heap     mergeHeap
	info     QueryInfo
	emitted  int
	obj      sos.Object
	err      error
	done     bool

	// Replica dedup and read repair, under placements that stamp origins.
	stamp   bool
	repair  bool // Rules.Repair on an unlimited read
	repl    int
	schema  string
	run     originRun
	lacking []repairItem // under-replicated origins, repaired after a full drain
}

// memberScan is one member's side of a cursor.
type memberScan struct {
	d *Daemon
	// cont is the container the scan began on: the daemon's generation. A
	// restarted daemon has a rebuilt container whose slab positions differ,
	// so resuming in it by key would be wrong; the member fails instead.
	cont *sos.Container
	rows []scanRow // the current chunk
	keys []byte    // the chunk's tree keys, copied out of the member's tree
	pos  int       // the next row of rows to merge
	more bool      // the member may hold rows past this chunk
	down bool
}

// scanRow is one index entry copied out of a member.
type scanRow struct {
	key    []byte // the tree key: the encoded index attributes, then the slab position
	obj    sos.Object
	origin uint64
}

// attrs is the row's encoded index attributes, which the merge orders by:
// the tree key without its slab position.
func (r *scanRow) attrs() []byte { return r.key[:len(r.key)-sos.KeySuffixLen] }

// Cursor opens a streaming query over [from, to) of index on every member
// of the current placement. limit > 0 stops the merge after that many
// rows, and a limited read never repairs; ctx stops it when done. The
// error is non-nil only for structural problems (unknown index, a bound
// of the wrong type, no live daemon to resolve the index).
func (cl *Client) Cursor(ctx context.Context, index string, from, to sos.Key, limit int) (*Cursor, error) {
	p := cl.c.Placement()
	members := p.Members()
	schema, err := indexSchema(members, index, from, to)
	if err != nil {
		return nil, err
	}
	rules := p.Rules()
	c := &Cursor{
		index: index, from: from, to: to, limit: limit, chunk: queryChunk,
		ctx: ctx, ctxDone: ctx.Done(), groups: p.Groups(),
		scans: make([]memberScan, len(members)),
		stamp: rules.Stamp, repair: rules.Repair && limit == 0,
		repl: len(p.Groups()[0]), schema: schema,
	}
	if limit > 0 && limit < c.chunk {
		c.chunk = limit // no member contributes more than limit rows
	}
	if c.stamp {
		c.run.at = map[uint64]int{}
	}
	c.heap.items = make([]mergeItem, 0, len(members))
	failed := false
	for i, d := range members {
		s := &c.scans[i]
		s.d, s.rows = d, make([]scanRow, 0, c.chunk)
		if !c.fill(i) {
			failed = true
		} else if len(s.rows) > 0 {
			c.heap.items = append(c.heap.items, mergeItem{key: s.rows[0].attrs(), member: i})
		}
	}
	heap.Init(&c.heap)
	if failed {
		c.degrade()
	}
	return c, nil
}

// Next merges the next row and reports whether there is one. It returns
// false at the end of the range, at the limit, or once ctx is done (Err
// then says so). Read repair runs when an unlimited read reaches the end.
func (c *Cursor) Next() bool {
	for !c.done {
		if c.limit > 0 && c.emitted == c.limit {
			c.done = true
			break
		}
		select {
		case <-c.ctxDone:
			c.err, c.done = c.ctx.Err(), true
			continue
		default:
		}
		if len(c.heap.items) == 0 {
			c.done = true
			if c.repair {
				c.closeRun()
				c.info.Repaired = c.readRepair()
			}
			break
		}
		m := c.heap.items[0].member
		s := &c.scans[m]
		r := &s.rows[s.pos]
		s.pos++
		dup := c.stamp && r.origin != 0 && !c.firstCopy(r, m)
		c.obj = r.obj
		c.advance(m) // may refill the member's chunk over r
		if dup {
			continue
		}
		c.emitted++
		return true
	}
	c.obj = sos.Object{}
	return false
}

// Object returns the row Next moved to. It is the store's own object,
// which the caller must not modify.
func (c *Cursor) Object() sos.Object { return c.obj }

// Info returns the degradation report so far.
func (c *Cursor) Info() QueryInfo { return c.info }

// Err returns the context's error if it stopped the cursor.
func (c *Cursor) Err() error { return c.err }

// advance moves member m's heap entry, the top, to its next row. It
// refills the member's chunk when it runs out and drops the member once
// it is exhausted or fails.
func (c *Cursor) advance(m int) {
	s := &c.scans[m]
	if s.pos == len(s.rows) && s.more && !c.fill(m) {
		c.degrade()
	}
	if s.pos < len(s.rows) {
		c.heap.items[0].key = s.rows[s.pos].attrs()
		heap.Fix(&c.heap, 0)
	} else {
		heap.Pop(&c.heap)
	}
}

// fill reads member m's next chunk. A member that cannot serve it is
// marked down and reports false.
func (c *Cursor) fill(m int) bool {
	s := &c.scans[m]
	if s.d.scan(s, c.index, c.from, c.to, c.chunk) {
		return true
	}
	s.rows, s.pos, s.more, s.down = s.rows[:0], 0, false, true
	return false
}

// scan copies the member's next chunk into s under the daemon lock: at
// most n rows, from the start of the range or, once the scan has begun,
// from just past the last row copied. It reports false when the daemon
// cannot serve: faulted, crashed, or restarted since the scan began.
func (d *Daemon) scan(s *memberScan, index string, from, to sos.Key, n int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil || d.cont == nil || (s.cont != nil && s.cont != d.cont) {
		return false
	}
	var cur sos.Cursor
	var err error
	if s.cont == nil {
		cur, err = d.cont.Cursor(index, from, to)
	} else {
		cur, err = d.cont.CursorAfter(index, s.rows[len(s.rows)-1].key, to)
	}
	if err != nil {
		return false
	}
	defer cur.Close()
	s.cont = d.cont
	s.rows, s.keys, s.pos = s.rows[:0], s.keys[:0], 0
	for len(s.rows) < n && cur.Next() {
		at := len(s.keys)
		s.keys = cur.AppendKey(s.keys)
		if at == 0 {
			s.keys = slices.Grow(s.keys, (n-1)*len(s.keys)) // room for a chunk of such keys
		}
		s.rows = append(s.rows, scanRow{key: s.keys[at:], obj: cur.Object(), origin: cur.Origin()})
	}
	s.more = len(s.rows) == n
	return true
}

// degrade recomputes the report from the members marked down, in member
// order.
func (c *Cursor) degrade() {
	down := map[*Daemon]bool{}
	var failed []string
	for i := range c.scans {
		if s := &c.scans[i]; s.down {
			down[s.d] = true
			failed = append(failed, s.d.Name)
		}
	}
	c.info.Failed = failed
	c.info.LostGroups = lostGroups(c.groups, func(d *Daemon) bool { return down[d] })
	c.info.Partial = len(c.info.LostGroups) > 0
}

// originRun remembers the origins of the current run of equal index keys.
// Copies of one origin are one object, so they share its key, and the
// merge emits all rows of a key back to back: a replica can only repeat
// inside the current run, which is all the dedup has to hold.
type originRun struct {
	key  []byte         // the run's encoded index attributes, a copy
	open bool           // key holds a run
	at   map[uint64]int // origin -> its position in ids
	ids  []uint64
	objs []sos.Object
	on   []bool // len(ids) x members: which members hold each origin
}

// repairItem is an origin the merge saw on fewer than R members.
type repairItem struct {
	origin uint64
	obj    sos.Object
	on     []bool // per member: holds a copy
	copies int
}

// firstCopy records that member m holds r's origin and reports whether
// this is the origin's first copy.
func (c *Cursor) firstCopy(r *scanRow, m int) bool {
	if key := r.attrs(); !c.run.open || !bytes.Equal(key, c.run.key) {
		if c.repair {
			c.closeRun()
		} else {
			c.run.reset()
		}
		c.run.key, c.run.open = append(c.run.key[:0], key...), true
	}
	n := len(c.scans)
	i, seen := c.run.at[r.origin]
	if !seen {
		i = len(c.run.ids)
		c.run.at[r.origin] = i
		c.run.ids = append(c.run.ids, r.origin)
		c.run.objs = append(c.run.objs, r.obj)
		for range n {
			c.run.on = append(c.run.on, false)
		}
	}
	c.run.on[i*n+m] = true
	return !seen
}

// closeRun keeps every origin of the finished run that is on fewer than R
// members for read repair, then starts an empty run.
func (c *Cursor) closeRun() {
	n := len(c.scans)
	for i, id := range c.run.ids {
		on := c.run.on[i*n : (i+1)*n]
		copies := 0
		for _, held := range on {
			if held {
				copies++
			}
		}
		if copies < c.repl {
			c.lacking = append(c.lacking, repairItem{id, c.run.objs[i], append([]bool(nil), on...), copies})
		}
	}
	c.run.reset()
}

func (r *originRun) reset() {
	clear(r.at)
	r.open, r.ids, r.objs, r.on = false, r.ids[:0], r.objs[:0], r.on[:0]
}

// readRepair copies each under-replicated origin, in ascending origin
// order, onto healthy members that lack it, in member order, until R
// copies exist. It returns the number of copies written.
func (c *Cursor) readRepair() int {
	sort.Slice(c.lacking, func(i, j int) bool { return c.lacking[i].origin < c.lacking[j].origin })
	repaired := 0
	for _, it := range c.lacking {
		need := c.repl - it.copies
		for i := range c.scans {
			if need == 0 {
				break
			}
			s := &c.scans[i]
			if s.down || it.on[i] {
				continue
			}
			if err := s.d.InsertOrigin(c.schema, it.obj, it.origin); err != nil {
				continue
			}
			repaired++
			need--
		}
	}
	return repaired
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

// indexSchema resolves index, via the first live member, to the schema it
// is defined over, and checks that from and to can bound it.
func indexSchema(members []*Daemon, index string, from, to sos.Key) (string, error) {
	for _, d := range members {
		d.mu.Lock()
		if d.cont == nil {
			d.mu.Unlock()
			continue
		}
		ix := d.cont.Index(index)
		d.mu.Unlock()
		if ix == nil {
			return "", fmt.Errorf("dsos: unknown index %q", index)
		}
		if err := ix.CheckKey(from); err != nil {
			return "", err
		}
		if err := ix.CheckKey(to); err != nil {
			return "", err
		}
		return ix.Spec().Schema, nil
	}
	return "", fmt.Errorf("dsos: no live daemon to resolve index %q", index)
}

// mergeItem is one member's next row in the merge: its encoded index
// attributes, and the member, which breaks ties (lower member first).
type mergeItem struct {
	key    []byte
	member int
}

type mergeHeap struct{ items []mergeItem }

func (h *mergeHeap) Len() int { return len(h.items) }
func (h *mergeHeap) Less(i, j int) bool {
	if c := bytes.Compare(h.items[i].key, h.items[j].key); c != 0 {
		return c < 0
	}
	return h.items[i].member < h.items[j].member
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
