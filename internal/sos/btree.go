package sos

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"sort"
)

// A B+tree over the fixed-width byte keys of key.go, the index structure
// behind SOS containers. A tree key is the index attributes' words, then
// the row's 4-byte big-endian slab position, which makes it unique: equal
// attribute values keep insertion order, and a leaf's payload is its key's
// suffix. The tree supports insertion and ordered iteration — SOS
// partitions are append-mostly, and the monitoring workload never deletes.
//
// A node's keys live in one array of nodeBytes, allocated once; its only
// pointers are children and next, so the collector never traces a key. An
// internal node holds whole tree keys; a leaf packs them at its own base
// and byte width per key column (DESIGN.md § "Node layout").

// nodeBytes is the size of a node's key array: one allocation size class.
const nodeBytes = 2048

// KeySuffixLen is the length of a tree key's suffix (Cursor.AppendKey): the
// row's big-endian slab position, after the encoded index attributes.
const KeySuffixLen = 4

// column is one key column of a leaf: each key holds the column's value,
// less base, big-endian in width bytes at offset off.
type column struct {
	base  uint64
	off   uint16
	width uint8
}

// shift takes the column's offset out of an 8-byte big-endian load at it;
// span is the greatest offset its width holds, top the greatest value.
func (c *column) shift() uint  { return 64 - 8*uint(c.width) }
func (c *column) span() uint64 { return ^uint64(0) >> c.shift() }
func (c *column) top() uint64  { return c.base + min(c.span(), ^c.base) }

// load returns the column's value in the packed key at b[at:].
func (c *column) load(b []byte, at int) uint64 {
	return c.base + binary.BigEndian.Uint64(b[at+int(c.off):])>>c.shift()
}

// store writes v, a value the column holds, into the packed key at b[at:],
// and zeroes the 8-width bytes after it: a key's columns are stored in
// order, keys in order, and 8 bytes of room follow the last.
func (c *column) store(b []byte, at int, v uint64) {
	binary.BigEndian.PutUint64(b[at+int(c.off):], (v-c.base)<<c.shift())
}

// cover widens the column to hold v: a value below the base lowers it and
// keeps the top, one above the top raises it and keeps the base. Either way
// the width grows.
func (c *column) cover(v uint64) {
	switch top := c.top(); {
	case v < c.base:
		c.width = uint8(byteWidth(top - v))
		c.base = top - min(top, c.span())
	case v > top:
		c.width = uint8(byteWidth(v - c.base))
	}
}

// btreeNode is an internal node or a leaf; leaf searches read fields 1–5.
type btreeNode struct {
	leaf     bool
	n        int32        // leaf: the keys it holds
	stride   int32        // leaf: bytes per packed key
	last     int32        // leaf: the index of the previous insert
	keys     []byte       // internal: len/w separators; leaf: n packed keys
	cols     []column     // leaf: the layout of its keys
	next     *btreeNode   // leaf chain
	children []*btreeNode // internal nodes: one more than keys
}

type btree struct {
	root  *btreeNode
	width int    // bytes per tree key
	order int    // separators per internal node: nodeBytes/width
	sep   []byte // the separator an insert is carrying up
	size  int
	// an insert's scratch: a layout, a packed key, a leaf's spare arrays
	cols  []column
	probe []byte
	old   btreeNode
	retry bool // a node split without taking the key: insert it again
}

// newBTree makes an empty tree of keys width bytes long: 8 bytes per
// attribute, then KeySuffixLen. At least four must fit a node.
func newBTree(width int) *btree {
	ncols := (width-KeySuffixLen)/8 + 1
	t := &btree{width: width, order: nodeBytes / width, sep: make([]byte, width),
		cols: make([]column, ncols), probe: make([]byte, width+8),
		old: btreeNode{keys: make([]byte, nodeBytes), cols: make([]column, ncols)}}
	t.root = t.newNode(true)
	return t
}

func (t *btree) newNode(leaf bool) *btreeNode {
	if leaf {
		return &btreeNode{keys: make([]byte, nodeBytes), cols: make([]column, len(t.cols)), last: -1, leaf: true}
	}
	return &btreeNode{keys: make([]byte, 0, t.order*t.width), children: make([]*btreeNode, 0, t.order+1), last: -1}
}

// value returns column j of ncols in tree key: an attribute's order word,
// or the last, the slab position.
func value(key []byte, j, ncols int) uint64 {
	if j == ncols-1 {
		return uint64(binary.BigEndian.Uint32(key[8*j:]))
	}
	return binary.BigEndian.Uint64(key[8*j:])
}

// put shifts internal node n's separators from i on one place right and
// copies key in at i.
func (n *btreeNode) put(i int, key []byte) {
	w := len(key)
	n.keys = n.keys[:len(n.keys)+w]
	copy(n.keys[i*w+w:], n.keys[i*w:])
	copy(n.keys[i*w:], key)
}

// search returns the index of internal node n's first separator >= key,
// or > key when after.
func (n *btreeNode) search(key []byte, w int, after bool) int {
	lo, hi := 0, len(n.keys)/w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(n.keys[mid*w:mid*w+w], key); c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendKey appends leaf n's i-th key to b as a tree key.
func (n *btreeNode) appendKey(b []byte, i int) []byte {
	at, last := i*int(n.stride), len(n.cols)-1
	for j := range last {
		b = binary.BigEndian.AppendUint64(b, n.cols[j].load(n.keys, at))
	}
	return binary.BigEndian.AppendUint32(b, uint32(n.cols[last].load(n.keys, at)))
}

// pack packs tree key k into q (max(n.stride, 8) bytes) in leaf n's
// layout. It returns 0 when the layout holds k; below 0 when a column lies
// below its base, packing k as the least key with its earlier columns;
// above 0 when one lies above its top, as the greatest.
func (n *btreeNode) pack(k, q []byte) (clamp int) {
	for j := range n.cols {
		c, v := &n.cols[j], value(k, j, len(n.cols))
		if clamp == 0 && (v < c.base || v > c.top()) {
			clamp = cmp.Compare(v, c.base)
		}
		if clamp < 0 {
			v = c.base
		} else if clamp > 0 {
			v = c.top()
		}
		c.store(q, 0, v)
	}
	return clamp
}

// find returns the index of leaf n's first key >= q, a packed key, or > q
// when after.
func (n *btreeNode) find(q []byte, after bool) int {
	s, lo, hi := int(n.stride), 0, int(n.n)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c := bytes.Compare(n.keys[mid*s:mid*s+s], q[:s])
		if c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds key, copying it. Keys must be unique (the position suffix
// makes them so). A node that splits on the way takes no key, and the
// insert starts again from the root.
func (t *btree) insert(key []byte) {
	for t.retry = true; t.retry; {
		t.retry = false
		if right := t.insertAt(t.root, key); right != nil {
			root := t.newNode(false)
			root.children = append(root.children, t.root, right)
			root.put(0, t.sep)
			t.root = root
		}
	}
	t.size++
}

// insertAt inserts key under n. Separators are copies of right-node first
// keys: child i holds keys < key(i), child i+1 keys >= key(i). A node that
// splits returns its new right sibling and leaves its separator in t.sep;
// a full internal node splits in the middle before an insert passes it.
func (t *btree) insertAt(n *btreeNode, key []byte) *btreeNode {
	if n.leaf {
		return t.insertLeaf(n, key)
	}
	w := t.width
	if len(n.keys) == cap(n.keys) {
		mid := t.order / 2
		r := t.newNode(false)
		r.keys = append(r.keys, n.keys[(mid+1)*w:]...)
		r.children = append(r.children, n.children[mid+1:]...)
		copy(t.sep, n.keys[mid*w:])
		clear(n.children[mid+1:])
		n.keys, n.children, t.retry = n.keys[:mid*w], n.children[:mid+1], true
		return r
	}
	i := n.search(key, w, true)
	if right := t.insertAt(n.children[i], key); right != nil {
		n.put(i, t.sep)
		n.children = slices.Insert(n.children, i+1, right)
	}
	return nil
}

// insertLeaf inserts key into leaf n, first repacking the leaf in place if
// its layout must widen to hold the key, or splits a leaf without room.
func (t *btree) insertLeaf(n *btreeNode, key []byte) *btreeNode {
	clamp := n.pack(key, t.probe)
	s, widen := int(n.stride), clamp != 0
	if widen {
		s = 0
		for j, c := range n.cols {
			v := value(key, j, len(n.cols))
			if n.n == 0 { // the empty root: based at v
				c.base = v
			}
			c.cover(v)
			t.cols[j], s = c, s+int(c.width)
		}
	}
	if (int(n.n)+1)*s+8 > nodeBytes { // no room for the key and a load past it
		return t.splitLeaf(n, n.find(t.probe, clamp >= 0))
	}
	if widen { // repack from n's arrays, swapped for the tree's spare ones
		t.old.keys, t.old.cols, t.old.stride, n.keys, n.cols = n.keys, n.cols, n.stride, t.old.keys, t.old.cols
		repack(n, &t.old, 0, int(n.n), t.cols)
		n.pack(key, t.probe)
	}
	i := n.find(t.probe, true)
	copy(n.keys[(i+1)*s:], n.keys[i*s:int(n.n)*s])
	copy(n.keys[i*s:], t.probe[:s])
	n.n++
	n.last = int32(i)
	return nil
}

// splitLeaf moves leaf n's keys from a split point on into a new right
// sibling and has the key that belongs at index i inserted again. When the
// leaf's previous insert landed just before i, the point is the cut
// nearest i, so appends to a key region fill each leaf, and the right half
// is packed at the least layout its keys need. When it landed at i, the
// mirror: the cut nearest i keeps at least one key on the left, so
// descending keys fill each leaf, and the left half is packed at its least
// layout. Otherwise it is the cut nearest the middle, and both halves keep
// n's layout: keys that arrive out of order would widen a tighter one
// again, one repack at a time.
func (t *btree) splitLeaf(n *btreeNode, i int) *btreeNode {
	c, s, at := int(n.n), int(n.stride), int(n.n)/2
	app, pre := i > 0 && i == int(n.last)+1, i < c && i == int(n.last)
	right := t.newNode(true)
	if app {
		at = min(i, c-1)
	} else if pre {
		at = max(i, 1)
	}
	at = n.cut(at)
	if app {
		repack(right, n, at, c, t.least(n, at, c))
	} else {
		copy(right.keys, n.keys[at*s:c*s])
		copy(right.cols, n.cols)
		right.stride, right.n = n.stride, int32(c-at)
	}
	if pre { // repack from n's arrays, swapped for the tree's spare ones
		cols := t.least(n, 0, at)
		t.old.keys, t.old.cols, t.old.stride, n.keys, n.cols = n.keys, n.cols, n.stride, t.old.keys, t.old.cols
		repack(n, &t.old, 0, at, cols)
	}
	n.n, right.next, n.next = int32(at), n.next, right
	t.sep, t.retry = right.appendKey(t.sep[:0], 0), true
	return right
}

// least returns, in t.cols, the least layout that holds leaf n's keys
// [a, b).
func (t *btree) least(n *btreeNode, a, b int) []column {
	for j := range t.cols {
		lo, hi := ^uint64(0), uint64(0)
		for r := a; r < b; r++ {
			x := n.cols[j].load(n.keys, r*int(n.stride))
			lo, hi = min(lo, x), max(hi, x)
		}
		t.cols[j] = column{base: lo, width: uint8(byteWidth(hi - lo))}
	}
	return t.cols
}

// cut returns the split point of leaf n nearest at among those whose keys
// on either side differ in the earliest column: a split keeps a key region
// (keys equal in their leading columns) whole in one leaf where it can.
// Columns before the first that varies are equal across the leaf, so that
// column ascends, and the points nearest at are the ends of at's run in it.
func (n *btreeNode) cut(at int) int {
	s, c := int(n.stride), int(n.n)
	for j := range n.cols {
		col := &n.cols[j]
		v := col.load(n.keys, at*s)
		lo := sort.Search(c, func(p int) bool { return col.load(n.keys, p*s) >= v })
		hi := sort.Search(c, func(p int) bool { return col.load(n.keys, p*s) > v })
		if lo > 0 && (hi == c || at-lo <= hi-at) {
			return lo
		} else if hi < c {
			return hi
		}
	}
	return at
}

// repack writes leaf src's keys [a, b) into leaf dst from its first key on,
// in layout cols, which becomes dst's.
func repack(dst, src *btreeNode, a, b int, cols []column) {
	s := 0 // lay the columns out back to back
	for j := range cols {
		cols[j].off, s = uint16(s), s+int(cols[j].width)
	}
	for r := range b - a {
		for j := range cols {
			cols[j].store(dst.keys, r*s, src.cols[j].load(src.keys, (a+r)*int(src.stride)))
		}
	}
	copy(dst.cols, cols)
	dst.stride, dst.n = int32(s), int32(b-a)
}

// iterator walks leaves in ascending key order; i is the index of the
// current key in its leaf.
type iterator struct {
	node *btreeNode
	i    int
}

// seek positions an iterator at the first key >= key, or > key when
// after (empty key = the minimum). Tree keys are unique, so seeking after
// a key the tree returned resumes exactly behind it, whatever was
// inserted in between. A shorter key is sought as if zero-padded, a longer
// one cut to the tree's width and sought after.
func (t *btree) seek(key []byte, after bool) iterator {
	var buf [nodeBytes/2 + 8]byte // the widest tree key, then its packed probe
	p, q := buf[:t.width], buf[t.width:]
	copy(p, key)
	if len(key) != t.width {
		after = len(key) > t.width
	}
	n := t.root
	for !n.leaf {
		n = n.children[n.search(p, t.width, true)]
	}
	if clamp := n.pack(p, q); clamp != 0 {
		after = clamp > 0
	}
	it := iterator{node: n, i: n.find(q, after)}
	it.advanceLeaf()
	return it
}

// advanceLeaf moves an iterator positioned past its leaf's last key onto
// the next leaf's first.
func (it *iterator) advanceLeaf() {
	for it.node != nil && it.i >= int(it.node.n) {
		it.node = it.node.next
		it.i = 0
	}
}

// valid reports whether the iterator points at an entry.
func (it *iterator) valid() bool { return it.node != nil && it.i < int(it.node.n) }

// next advances to the following entry.
func (it *iterator) next() {
	it.i++
	it.advanceLeaf()
}

// pos returns the current entry's slab position, its key's suffix.
func (it *iterator) pos() int {
	n := it.node
	return int(n.cols[len(n.cols)-1].load(n.keys, it.i*int(n.stride)))
}
