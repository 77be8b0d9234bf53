package sos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// mergeWalk is job_time_rank served without a tree of its own, by merging
// its rank runs in the job_rank_time tree: for each job, the rows of each
// rank are stored in time order, so the job's rows in (time, rank,
// position) order are a k-way merge of its ranks' runs. It emits the keys
// the job_time_rank tree would. It cost 5-10x the tree per one-job query
// (BenchmarkDerivedOrders), past the 3x that would have let that tree go
// (ROADMAP item 26, step 2), and is kept only to price that order.
type mergeWalk struct {
	t      *btree // job_rank_time's
	lo     []byte // a tree key: rows at or past it (past it when strict)
	strict bool
	hi     []byte // rows before it; nil: no bound
	heap   []mergeRun
	key    []byte // the current row's
	it     iterator
	tk     []byte
}

// mergeRun is one rank's run: the tree's rows from it to end.
type mergeRun struct {
	key     []byte // the head row's job_time_rank key
	it, end iterator
}

// openMerge opens a mergeWalk of c's job_rank_time tree from lo (past it
// when after) to before hi (nil: open), bounds as Container.open encodes
// them.
func openMerge(c *Container, lo []byte, after bool, hi []byte) *mergeWalk {
	t := c.Index("job_rank_time").tree
	o := &mergeWalk{t: t, lo: make([]byte, t.width), strict: after && len(lo) >= t.width, hi: hi}
	copy(o.lo, lo)
	o.it = t.seek(o.lo[:8], false)
	if hi != nil && bytes.Compare(lo, hi) >= 0 {
		o.it = iterator{}
	}
	return o
}

// mergePerm maps job_time_rank's columns to job_rank_time's.
var mergePerm = [...]int{0, 2, 1}

func (o *mergeWalk) next() bool {
	if len(o.heap) == 0 && !o.pullGroup() {
		return false
	}
	r := &o.heap[0]
	if o.hi != nil && bytes.Compare(r.key, o.hi) >= 0 {
		o.heap, o.it = o.heap[:0], iterator{}
		return false
	}
	o.key = append(o.key[:0], r.key...)
	if r.it.next(); r.it != r.end {
		o.head(r)
	} else {
		last := len(o.heap) - 1
		o.heap[0] = o.heap[last]
		o.heap = o.heap[:last]
	}
	for i := 0; ; { // down
		m := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(o.heap) && bytes.Compare(o.heap[c].key, o.heap[m].key) < 0 {
				m = c
			}
		}
		if m == i {
			break
		}
		o.heap[i], o.heap[m] = o.heap[m], o.heap[i]
		i = m
	}
	return true
}

func (o *mergeWalk) pos() int { return int(binary.BigEndian.Uint32(o.key[len(o.key)-KeySuffixLen:])) }

// head decodes run r's current row into its job_time_rank key.
func (o *mergeWalk) head(r *mergeRun) {
	o.tk = r.it.node.appendKey(o.tk[:0], r.it.i)
	r.key = r.key[:0]
	for _, j := range mergePerm {
		r.key = append(r.key, o.tk[8*j:8*j+8]...)
	}
	r.key = append(r.key, o.tk[24:]...)
}

// pullGroup loads the runs of the next job: for each rank, its rows at or
// past lo.
func (o *mergeWalk) pullGroup() bool {
	if !o.it.valid() {
		return false
	}
	g := o.it.node.appendKey(nil, o.it.i)[:8]
	if o.hi != nil && bytes.Compare(g, o.hi) >= 0 {
		o.it = iterator{}
		return false
	}
	past := make([]byte, o.t.width)
	for o.it.valid() {
		o.tk = o.it.node.appendKey(o.tk[:0], o.it.i)
		if !bytes.Equal(o.tk[:8], g) {
			break
		}
		p := slices.Clone(o.tk[:16])
		copy(past, p)
		for i := 16; i < len(past); i++ {
			past[i] = 0xff
		}
		end := o.t.seek(past, true)
		if start := o.runStart(p, o.it, end); start != end {
			r := mergeRun{it: start, end: end}
			o.head(&r)
			o.heap = append(o.heap, r)
		}
		o.it = end
	}
	slices.SortFunc(o.heap, func(a, b mergeRun) int { return bytes.Compare(a.key, b.key) })
	return true
}

// runStart returns the first row of the rank run with job and rank p, from
// first to end, whose job_time_rank key is at or past lo: lo's job decides
// the whole run, then its time the rows of other times, then its rank and
// position the rows of its time.
func (o *mergeWalk) runStart(p []byte, first, end iterator) iterator {
	lo := o.lo
	if c := bytes.Compare(lo[:8], p[:8]); c < 0 {
		return first
	} else if c > 0 {
		return end
	}
	key := append(slices.Clone(p), lo[8:16]...)
	switch c := bytes.Compare(lo[16:24], p[8:16]); {
	case c < 0:
		return o.t.seek(key, false)
	case c > 0:
		return o.t.seek(append(key, 0xff, 0xff, 0xff, 0xff), true)
	}
	return o.t.seek(append(key, lo[24:]...), o.strict)
}

// mergeScan reads job_time_rank's [from, to) from mergeWalk as chunkedScan
// reads an index, each chunk from a walk reopened just past the last key.
// It returns the keys read.
func mergeScan(c *Container, from, to Key) [][]byte {
	var keys [][]byte
	var hi []byte
	if to != nil {
		hi = appendKey(nil, to)
	}
	o := openMerge(c, appendKey(nil, from), false, hi)
	for {
		got := 0
		for got < benchChunk && o.next() {
			keys = append(keys, slices.Clone(o.key))
			_ = c.slabs["ev"].object(o.pos(), nil)
			got++
		}
		if got < benchChunk {
			return keys
		}
		o = openMerge(c, keys[len(keys)-1], true, hi)
	}
}

// TestMergeWalkMatchesTree: the merge prototype gives the job_time_rank
// tree's keys, whole jobs and windows of one, read in chunks.
func TestMergeWalkMatchesTree(t *testing.T) {
	c := lateShard(t, 20000, darshanIndexes...)
	for _, q := range [][2]Key{
		{{int64(3)}, {int64(4)}},
		{nil, nil},
		{{int64(5), 1.6e9 + 10}, {int64(5), 1.6e9 + 40, int64(9)}},
		{{int64(15)}, nil},
	} {
		cur, err := c.Cursor("job_time_rank", q[0], q[1])
		if err != nil {
			t.Fatal(err)
		}
		sameKeys(t, fmt.Sprintf("[%v, %v)", q[0], q[1]), mergeScan(c, q[0], q[1]), scanKeys(cur, 0))
	}
}
