package sos

import (
	"encoding/binary"
	"slices"
	"sort"
	"unsafe"
)

// Orders read from the pages (DESIGN.md "One order read from the pages").
// An index that reorders a tree's attributes to lead with the tree's last
// one (time_job_rank over job_rank_time) builds nothing: rows arrive
// roughly in that attribute's order, and each sealed page keeps its range
// of it (slab.spans). A page walk pulls pages in order of their least
// value, splits each into the stretches in which its keys ascend, merges
// their heads, and emits a row once no page left to pull can start below
// it; the open page is scanned when it opens. It emits the keys a tree
// would hold, in the tree's order, so resuming a scan and merging shards
// work unchanged. Any other order gets a tree: pages led by another
// attribute would all overlap.

// derive makes ix an order read from the pages when a tree declared before
// it has the same attributes, the tree's last first, and reports whether
// it did. A schema's pages keep the range of one attribute only, and a
// page walk keys on at most three.
func (c *Container) derive(ix *Index) bool {
	s, n, lead := c.slabs[ix.spec.Schema], len(ix.attrIdxs), ix.attrIdxs[0]
	for _, t := range c.bySchema[ix.spec.Schema] {
		if n > 1 && n < len(run{}.head) && t.attrIdxs[len(t.attrIdxs)-1] == lead && (s.rangeCol < 0 || s.rangeCol == lead) &&
			slices.Equal(sorted(t.attrIdxs), sorted(ix.attrIdxs)) {
			if s.rangeCol < 0 {
				s.keepSpans(lead)
			}
			ix.base = t
			return true
		}
	}
	return false
}

func sorted(a []int) []int {
	a = slices.Clone(a)
	slices.Sort(a)
	return a
}

// pageWalk walks an order read from the pages: a heap of runs, each a
// stretch of rows whose keys ascend, ordered by their head rows' keys,
// which it holds as words (each key column's order word, then the
// position) in the first w of a run's head.
type pageWalk struct {
	ix     *Index
	rows   slab
	w      int
	lo     [4]uint64 // rows at or past it (past it when strict)
	strict bool
	hi     []uint64 // rows before it (a prefix, as Key bounds are)
	bound  bool     // hi bounds the rows
	heap   []run
	key    [4]uint64 // the current row's
	page   int       // the next page of rows.byLo to pull
	lead   []uint64  // a pulled page's leading words
}

// run is a stretch of rows, from pos to stop, whose keys ascend.
type run struct {
	head      [4]uint64 // the key of the row at pos
	pos, stop int
}

// walk opens a cursor over rows from lo (past it when after) to before hi
// (nil: open).
func (ix *Index) walk(rows slab, lo []byte, after bool, hi []byte, empty bool) *pageWalk {
	n := len(ix.attrIdxs)
	o := ix.spare.Load() // a closed cursor's buffers
	if o == nil || !ix.spare.CompareAndSwap(o, nil) {
		o = new(pageWalk)
	}
	*o = pageWalk{ix: ix, rows: rows, w: n + 1, heap: o.heap[:0], hi: o.hi[:0], lead: o.lead[:0], bound: hi != nil,
		strict: after && len(lo) >= 8*n+KeySuffixLen}
	// The bound as the tree seeks it: zero-padded or cut to a tree key,
	// and excluded only when it is one.
	var k [8 * len(o.lo)]byte
	copy(k[:8*n+KeySuffixLen], lo)
	for i := range o.w {
		o.lo[i] = binary.BigEndian.Uint64(k[8*i:])
	}
	o.lo[n] >>= 64 - 8*KeySuffixLen
	for i := 0; i+8 <= len(hi); i += 8 {
		o.hi = append(o.hi, binary.BigEndian.Uint64(hi[i:]))
	}
	if empty {
		o.page = len(rows.byLo)
		return o
	}
	if s := &o.rows; s.n > s.sealed()<<s.shift {
		o.scan(s.sealed()<<s.shift, s.n)
	}
	o.page = sort.Search(len(rows.byLo), func(i int) bool { return rows.reach[i] >= o.lo[0] })
	return o
}

// compare orders key words a against b, a prefix of a key's words.
func compare(a, b []uint64) int {
	for i, w := range b {
		if a[i] != w {
			if a[i] < w {
				return -1
			}
			return 1
		}
	}
	if len(a) == len(b) {
		return 0
	}
	return 1
}

// less reports whether run i's head is below run j's.
func (o *pageWalk) less(i, j int) bool {
	return compare(o.heap[i].head[:o.w], o.heap[j].head[:o.w]) < 0
}

// next moves to the order's next row and reports whether there is one.
func (o *pageWalk) next() bool {
	for len(o.heap) == 0 || o.page < len(o.rows.byLo) && o.rows.spans[o.rows.byLo[o.page]].lo <= o.heap[0].head[0] {
		if !o.pullPage() {
			if len(o.heap) == 0 {
				return false
			}
			break
		}
	}
	r := &o.heap[0]
	if o.bound && compare(r.head[:o.w], o.hi) >= 0 {
		o.heap, o.page = o.heap[:0], len(o.rows.byLo)
		return false
	}
	o.key = r.head
	if r.pos++; r.pos < r.stop {
		o.rowKey(r.pos, &r.head)
	} else {
		last := len(o.heap) - 1
		o.heap[0] = o.heap[last]
		o.heap = o.heap[:last]
	}
	for i := 0; ; { // down
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(o.heap) && o.less(c, m) {
				m = c
			}
		}
		if m == i {
			return true
		}
		o.heap[i], o.heap[m] = o.heap[m], o.heap[i]
		i = m
	}
}

// appendKey appends the current row's tree key to dst.
func (o *pageWalk) appendKey(dst []byte) []byte {
	for _, w := range o.key[:o.w-1] {
		dst = binary.BigEndian.AppendUint64(dst, w)
	}
	return binary.BigEndian.AppendUint32(dst, uint32(o.key[o.w-1]))
}

// rowKey writes the key of the row at slab position pos into k.
func (o *pageWalk) rowKey(pos int, k *[4]uint64) {
	row := o.rows.object(pos, nil)
	for j, ai := range o.ix.attrIdxs {
		k[j] = orderWord(o.ix.types[j], row.word(ai))
	}
	k[o.w-1] = uint64(pos)
}

// pullPage pulls the next sealed page that can hold a row in range and
// reports whether there was one.
func (o *pageWalk) pullPage() bool {
	s := &o.rows
	for o.page < len(s.byLo) {
		p := int(s.byLo[o.page])
		if sp := s.spans[p]; len(o.hi) > 0 && sp.lo > o.hi[0] {
			o.page = len(s.byLo) // no page left holds a row before hi
		} else if o.page++; sp.hi >= o.lo[0] {
			o.scan(p<<s.shift, (p+1)<<s.shift)
			return true
		}
	}
	return false
}

// scan adds runs of rows a to b, which lie in one page, to the heap: one
// per stretch in which their keys ascend, from its first row at or past
// lo. Stretches are found on the leading column's words; keys are read
// where those tie, and for each run's head.
func (o *pageWalk) scan(a, b int) {
	lead := slices.Grow(o.lead[:0], b-a)[:b-a]
	o.lead = lead
	t, pg := o.ix.types[0], o.rows.pages[a>>o.rows.shift].Load()
	p := unsafe.Add(pg.rows, uintptr(a&(1<<o.rows.shift-1))*pg.stride)
	c := col{mask: ^uint64(0), off: 8 * uintptr(o.ix.attrIdxs[0])} // an open page's words
	if pg.cols != nil {
		c = pg.cols[o.ix.attrIdxs[0]]
	}
	for i := range lead {
		lead[i] = orderWord(t, c.base+binary.LittleEndian.Uint64((*[8]byte)(unsafe.Add(p, c.off))[:])&c.mask)
		p = unsafe.Add(p, pg.stride)
	}
	var h, k [4]uint64
	for at := a; at < b; {
		stop := at + 1
		for ; stop < b; stop++ {
			if l, prev := lead[stop-a], lead[stop-1-a]; l < prev {
				break
			} else if l == prev {
				o.rowKey(stop-1, &h)
				if o.rowKey(stop, &k); compare(h[:o.w], k[:o.w]) > 0 {
					break
				}
			}
		}
		for ; at < stop && lead[at-a] <= o.lo[0]; at++ { // skip the rows before lo
			if lead[at-a] == o.lo[0] {
				if o.rowKey(at, &k); compare(k[:o.w], o.lo[:o.w]) > 0 || !o.strict && k == o.lo {
					break
				}
			}
		}
		if at < stop {
			o.heap = append(o.heap, run{pos: at, stop: stop})
			o.rowKey(at, &o.heap[len(o.heap)-1].head)
			for i := len(o.heap) - 1; i > 0 && o.less(i, (i-1)/2); i = (i - 1) / 2 { // up
				o.heap[i], o.heap[(i-1)/2] = o.heap[(i-1)/2], o.heap[i]
			}
		}
		at = stop
	}
}
