package dsos

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"sync"

	"darshanldms/internal/sos"
)

// The materialising query the streaming Cursor replaced, kept as the
// reference the cursor is held to: every member copies its whole range
// under its lock, the client waits for all of them, k-way merges
// everything, and then read-repairs. A drained cursor must equal it row
// for row, report for report, repair for repair.

// compareKeys orders attribute values as the index trees do, element by
// element: -0 equals +0, NaN sorts after +Inf and equals every NaN, and a
// shorter key orders before a longer one it is a prefix of. Strings compare
// as strings, for whole rows.
func compareKeys(a, b sos.Key) int {
	for i := range min(len(a), len(b)) {
		var c int
		switch av := a[i].(type) {
		case int64:
			c = cmp.Compare(av, b[i].(int64))
		case uint64:
			c = cmp.Compare(av, b[i].(uint64))
		case string:
			c = cmp.Compare(av, b[i].(string))
		case float64:
			bv := b[i].(float64)
			switch aNaN, bNaN := av != av, bv != bv; {
			case av < bv, bNaN && !aNaN:
				c = -1
			case av > bv, aNaN && !bNaN:
				c = 1
			}
		}
		if c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

// referenceQueryEx is the old Client.QueryEx.
func referenceQueryEx(cl *Client, index string, from, to sos.Key) ([]sos.Object, QueryInfo, error) {
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
		info.Repaired = referenceRepair(members, schema, seen, failed, len(p.Groups()[0]))
	}
	return merged, info, nil
}

// rangeQuery collects objects (and their origin ids when asked) with
// index-prefix keys in [from, to), building each object's key to check
// the upper bound.
func (d *Daemon) rangeQuery(index string, from, to sos.Key, withOrigins bool) ([]sos.Object, []uint64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fault != nil {
		return nil, nil, fmt.Errorf("dsos: %s unavailable: %w", d.Name, d.fault)
	}
	if d.cont == nil {
		return nil, nil, fmt.Errorf("dsos: %s: %w", d.Name, ErrCrashed)
	}
	ix := d.cont.Index(index)
	if ix == nil {
		return nil, nil, errors.New("sos: unknown index")
	}
	sch := d.cont.Schema(ix.Spec().Schema)
	var objs []sos.Object
	var origins []uint64
	err := d.cont.IterOrigins(index, from, func(o sos.Object, origin uint64) bool {
		if to != nil {
			key := make(sos.Key, 0, len(ix.Spec().Attrs))
			for _, a := range ix.Spec().Attrs {
				key = append(key, o.Value(sch.AttrIndex(a)))
			}
			if compareKeys(key, to) >= 0 {
				return false
			}
		}
		objs = append(objs, o)
		origins = append(origins, origin)
		return true
	})
	if !withOrigins {
		origins = nil
	}
	return objs, origins, err
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
			k = append(k, o.Value(a))
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
	h := &refHeap{}
	for i, lst := range lists {
		if len(lst) > 0 {
			*h = append(*h, refItem{key: keyOf(lst[0]), member: i})
		}
	}
	heap.Init(h)
	out := make([]sos.Object, 0, total)
	cursors := make([]int, len(lists))
	for h.Len() > 0 {
		it := (*h)[0]
		lst := lists[it.member]
		pos := cursors[it.member]
		obj := lst[pos]
		emit := true
		if withOrigins {
			var o uint64
			if og := origins[it.member]; og != nil {
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
				if !tr.on[it.member] {
					tr.on[it.member] = true
					tr.copies++
				}
			}
		}
		if emit {
			out = append(out, obj)
		}
		cursors[it.member]++
		if cursors[it.member] < len(lst) {
			(*h)[0] = refItem{key: keyOf(lst[cursors[it.member]]), member: it.member}
			heap.Fix(h, 0)
		} else {
			heap.Pop(h)
		}
	}
	return out, seen
}

// refItem is one list's next object in the reference merge, keyed by its
// attribute values: the reference orders by compareKeys, not by the byte
// keys the cursor merges.
type refItem struct {
	key    sos.Key
	member int
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if c := compareKeys(h[i].key, h[j].key); c != 0 {
		return c < 0
	}
	return h[i].member < h[j].member
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// referenceRepair re-inserts under-replicated objects: every origin that
// the merge saw on fewer than repl healthy daemons is copied (in
// ascending member order) to healthy daemons that lack it, until repl
// replicas exist. Returns the number of replica copies written.
func referenceRepair(members []*Daemon, schema string, seen map[uint64]*originTrack, failed map[*Daemon]bool, repl int) int {
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
