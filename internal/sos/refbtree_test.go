package sos

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// The B+tree as it was before leaves were packed: every key of a tree, in
// leaves too, stored at its full width. It is kept verbatim, renamed, as
// the reference the packed tree is held to (FuzzBTreeMatchesReference) and
// as refContainer's index.
//
// Every key of a tree has one width w, so a node stores its keys back to
// back in one array of nodeBytes, allocated once at full size and never
// regrown: key i is keys[i*w:]. An insert shifts the keys after it in
// place. A compare is bytes.Compare on node-local memory, and a node's only
// pointers are children and next, so the garbage collector never traces a
// key.

type refBTreeNode struct {
	keys     []byte          // len/w keys, in an array of the tree's node capacity
	children []*refBTreeNode // internal nodes: one more than keys
	next     *refBTreeNode   // leaf chain
	last     int32           // leaf nodes: the index of the previous insert
	leaf     bool
}

type refBTree struct {
	root  *refBTreeNode
	width int    // bytes per key
	order int    // keys per node: nodeBytes/width
	sep   []byte // the separator an insert is carrying up
	size  int
}

// newRefBTree makes an empty tree of keys width bytes long; at least four
// must fit a node.
func newRefBTree(width int) *refBTree {
	t := &refBTree{width: width, order: nodeBytes / width, sep: make([]byte, width)}
	t.root = t.newNode(true)
	return t
}

func (t *refBTree) newNode(leaf bool) *refBTreeNode {
	n := &refBTreeNode{keys: make([]byte, 0, t.order*t.width), last: -1, leaf: leaf}
	if !leaf {
		n.children = make([]*refBTreeNode, 0, t.order+1)
	}
	return n
}

// key returns the node's i-th key, of width w.
func (n *refBTreeNode) key(i, w int) []byte { return n.keys[i*w : i*w+w : i*w+w] }

// put shifts the keys from i on one place right and copies key in at i.
func (n *refBTreeNode) put(i int, key []byte) {
	w := len(key)
	n.keys = n.keys[:len(n.keys)+w]
	copy(n.keys[i*w+w:], n.keys[i*w:])
	copy(n.keys[i*w:], key)
}

// search returns the first index whose key is >= key, or > key when after.
func (n *refBTreeNode) search(key []byte, w int, after bool) int {
	lo, hi := 0, len(n.keys)/w
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(n.key(mid, w), key); c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds key, copying it. Keys must be unique (the position suffix
// makes them so).
func (t *refBTree) insert(key []byte) {
	if right := t.insertAt(t.root, key); right != nil {
		root := t.newNode(false)
		root.children = append(root.children, t.root, right)
		root.put(0, t.sep)
		t.root = root
	}
	t.size++
}

// insertAt inserts key under n. Separators are copies of right-node first
// keys: child i holds keys < key(i), child i+1 keys >= key(i). A full node
// splits, and insertAt returns the new right sibling, leaving the separator
// the parent needs for it in t.sep.
//
// A leaf whose previous insert landed just before this one splits at the
// insertion point: the new key ends the left half, or starts the right one
// when it is the leaf's last. Keys appended to a key region then fill each
// leaf, even when the next region's first keys share it. Every other node
// splits in the middle.
func (t *refBTree) insertAt(n *refBTreeNode, key []byte) *refBTreeNode {
	w := t.width
	i := n.search(key, w, true)
	if n.leaf {
		if len(n.keys) < cap(n.keys) {
			n.put(i, key)
			n.last = int32(i)
			return nil
		}
		// Split as if the key were in: the left half keeps the first at
		// keys of the node with it.
		at := (t.order + 1) / 2
		if i > 0 && i == int(n.last)+1 {
			at = min(i+1, t.order)
		}
		from := at
		if i < at {
			from--
		}
		right := t.split(n, from)
		right.next, n.next = n.next, right
		n.last = int32(i)
		if i < at {
			n.put(i, key)
		} else {
			right.put(i-from, key)
			right.last = int32(i - from)
		}
		copy(t.sep, right.key(0, w))
		return right
	}
	right := t.insertAt(n.children[i], key)
	if right == nil {
		return nil
	}
	if len(n.keys) < cap(n.keys) {
		n.put(i, t.sep)
		n.children = slices.Insert(n.children, i+1, right)
		return nil
	}
	// The right half takes key mid and the children after it; the child's
	// separator goes into its half, then key mid moves up to the parent.
	mid := t.order / 2
	r := t.split(n, mid)
	r.children = append(r.children, n.children[mid+1:]...)
	clear(n.children[mid+1:])
	n.children = n.children[:mid+1]
	if i <= mid {
		n.put(i, t.sep)
		n.children = slices.Insert(n.children, i+1, right)
	} else {
		r.put(i-mid, t.sep)
		r.children = slices.Insert(r.children, i-mid, right)
	}
	copy(t.sep, r.key(0, w))
	r.keys = r.keys[:copy(r.keys, r.keys[w:])]
	return r
}

// split moves n's keys from index at on into a new right sibling and
// returns it.
func (t *refBTree) split(n *refBTreeNode, at int) *refBTreeNode {
	right := t.newNode(n.leaf)
	right.keys = append(right.keys, n.keys[at*t.width:]...)
	n.keys = n.keys[:at*t.width]
	return right
}

// refIterator walks leaves in ascending key order; off is the byte offset of
// the current key in its leaf.
type refIterator struct {
	node   *refBTreeNode
	off, w int
}

// seek positions an refIterator at the first key >= key, or > key when
// after (empty key = the minimum). Tree keys are unique, so seeking after
// a key the tree returned resumes exactly behind it, whatever was
// inserted in between.
func (t *refBTree) seek(key []byte, after bool) refIterator {
	n := t.root
	for !n.leaf {
		n = n.children[n.search(key, t.width, true)]
	}
	it := refIterator{node: n, off: n.search(key, t.width, after) * t.width, w: t.width}
	it.advanceLeaf()
	return it
}

// advanceLeaf moves an refIterator positioned past its leaf's last key onto
// the next leaf's first.
func (it *refIterator) advanceLeaf() {
	for it.node != nil && it.off >= len(it.node.keys) {
		it.node = it.node.next
		it.off = 0
	}
}

// valid reports whether the refIterator points at an entry.
func (it *refIterator) valid() bool {
	return it.node != nil && it.off < len(it.node.keys)
}

// next advances to the following entry.
func (it *refIterator) next() {
	it.off += it.w
	it.advanceLeaf()
}

// key returns the current entry's key.
func (it *refIterator) key() []byte { return it.node.keys[it.off : it.off+it.w : it.off+it.w] }

// pos returns the current entry's slab position, its key's suffix.
func (it *refIterator) pos() int {
	return int(binary.BigEndian.Uint32(it.node.keys[it.off+it.w-KeySuffixLen:]))
}
