package sos

import (
	"bytes"
	"slices"
)

// A B+tree over the byte-string keys of key.go, the index structure
// behind SOS containers. Keys are made unique by their trailing object id,
// so equal attribute values keep insertion order. The tree supports
// insertion and ordered iteration — SOS partitions are append-mostly, and
// the monitoring workload never deletes.
//
// A node stores its keys inline: a buffer that key bytes are only ever
// appended to, and a sorted array of slots locating each key in it. A
// compare is bytes.Compare on node-local memory, and a node's only
// pointers are children and next, so the garbage collector never traces a
// key. Bytes once written never change, so a key slice stays valid after
// the node splits.

const btreeOrder = 64 // max keys per node

// slot locates one key in its node's buffer.
type slot struct{ off, n uint32 }

type btreeNode struct {
	buf      []byte
	slots    []slot
	children []*btreeNode // internal nodes: len(slots)+1 children
	refs     []int        // leaf nodes: each key's slab position
	next     *btreeNode   // leaf chain
	last     int          // leaf nodes: the slot of the previous insert
	leaf     bool
}

type btree struct {
	root *btreeNode
	size int
}

func newBTree() *btree { return &btree{root: newNode(true, 0)} }

// newNode makes a node with room for the one key past btreeOrder that
// makes it split, and bufCap bytes of keys.
func newNode(leaf bool, bufCap int) *btreeNode {
	n := &btreeNode{buf: make([]byte, 0, bufCap), slots: make([]slot, 0, btreeOrder+1), last: -1, leaf: leaf}
	if leaf {
		n.refs = make([]int, 0, btreeOrder+1)
	} else {
		n.children = make([]*btreeNode, 0, btreeOrder+2)
	}
	return n
}

// key returns the node's i-th key.
func (n *btreeNode) key(i int) []byte {
	s := n.slots[i]
	return n.buf[s.off : s.off+s.n : s.off+s.n]
}

// put stores a copy of key as the node's i-th key.
func (n *btreeNode) put(i int, key []byte) {
	n.slots = slices.Insert(n.slots, i, slot{uint32(len(n.buf)), uint32(len(key))})
	n.buf = append(n.buf, key...)
}

// search returns the first slot whose key is >= key, or > key when after.
func (n *btreeNode) search(key []byte, after bool) int {
	lo, hi := 0, len(n.slots)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := bytes.Compare(n.key(mid), key); c < 0 || after && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insert adds key -> ref, copying key. Keys must be unique (the object id
// suffix makes them so).
func (t *btree) insert(key []byte, ref int) {
	if sep, right := t.insertAt(t.root, key, ref); right != nil {
		root := newNode(false, cap(t.root.buf))
		root.children = append(root.children, t.root, right)
		root.put(0, sep)
		t.root = root
	}
	t.size++
}

// insertAt inserts key under n. Separators are copies of right-node first
// keys: child i holds keys < key(i), child i+1 keys >= key(i). A node
// that overflows splits after the insert, and insertAt returns the new
// right sibling and the separator the parent needs for it.
//
// A leaf whose previous insert landed just before this one splits at the
// insertion point: the new key ends the left half, or starts the right one
// when it is the leaf's last. Keys appended to a key region then fill each
// leaf, even when the next region's first keys share it. Every other node
// splits in the middle.
func (t *btree) insertAt(n *btreeNode, key []byte, ref int) (sep []byte, right *btreeNode) {
	i := n.search(key, true)
	if n.leaf {
		n.put(i, key)
		n.refs = slices.Insert(n.refs, i, ref)
		at := len(n.slots) / 2
		if i > 0 && i == n.last+1 {
			at = min(i+1, len(n.slots)-1)
		}
		n.last = i
		if len(n.slots) <= btreeOrder {
			return nil, nil
		}
		right = n.split(at)
		return right.key(0), right
	}
	if sep, right = t.insertAt(n.children[i], key, ref); right == nil {
		return nil, nil
	}
	n.put(i, sep)
	n.children = slices.Insert(n.children, i+1, right)
	if len(n.slots) <= btreeOrder {
		return nil, nil
	}
	mid := len(n.slots) / 2
	return n.key(mid), n.split(mid)
}

// split moves the keys from slot at on into a new right sibling and
// returns it. An internal node's key at moves up to the parent instead.
// Both halves get fresh buffers holding only their own keys.
func (n *btreeNode) split(at int) *btreeNode {
	right := newNode(n.leaf, cap(n.buf))
	from := at
	if n.leaf {
		right.refs = append(right.refs, n.refs[at:]...)
		n.refs = n.refs[:at]
		right.next, n.next = n.next, right
		right.last = n.last - at
	} else {
		from++
		right.children = append(right.children, n.children[from:]...)
		clear(n.children[from:])
		n.children = n.children[:from]
	}
	for j := from; j < len(n.slots); j++ {
		right.put(len(right.slots), n.key(j))
	}
	buf := make([]byte, 0, cap(n.buf))
	for j, s := range n.slots[:at] {
		n.slots[j].off = uint32(len(buf))
		buf = append(buf, n.buf[s.off:s.off+s.n]...)
	}
	n.buf, n.slots = buf, n.slots[:at]
	return right
}

// iterator walks leaves in ascending key order.
type iterator struct {
	node *btreeNode
	pos  int
}

// seek positions an iterator at the first key >= key, or > key when
// after (empty key = the minimum). Tree keys are unique, so seeking after
// a key the tree returned resumes exactly behind it, whatever was
// inserted in between.
func (t *btree) seek(key []byte, after bool) iterator {
	n := t.root
	for !n.leaf {
		n = n.children[n.search(key, true)]
	}
	it := iterator{node: n, pos: n.search(key, after)}
	it.advanceLeaf()
	return it
}

// advanceLeaf moves an iterator positioned past its leaf's last key onto
// the next leaf's first.
func (it *iterator) advanceLeaf() {
	for it.node != nil && it.pos >= len(it.node.slots) {
		it.node = it.node.next
		it.pos = 0
	}
}

// valid reports whether the iterator points at an entry.
func (it *iterator) valid() bool {
	return it.node != nil && it.pos < len(it.node.slots)
}

// next advances to the following entry.
func (it *iterator) next() {
	it.pos++
	it.advanceLeaf()
}
