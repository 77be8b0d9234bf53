package sos

// A B+tree keyed by composite attribute keys, the index structure behind
// SOS containers. Keys are made unique by an appended object id, so
// duplicate attribute values preserve insertion order. The tree supports
// insertion and ordered iteration — SOS partitions are append-mostly, and
// the monitoring workload never deletes.

const btreeOrder = 64 // max keys per node

type objRef struct {
	schema string
	pos    int // position within the schema's object slab
}

type btreeNode struct {
	keys     []Key
	children []*btreeNode // internal nodes: len(keys)+1 children
	refs     []objRef     // leaf nodes
	next     *btreeNode   // leaf chain
	leaf     bool
}

type btree struct {
	root *btreeNode
	size int
}

func newBTree() *btree {
	return &btree{root: &btreeNode{leaf: true}}
}

// insert adds key -> ref. Keys must be unique (enforced by the caller via
// the oid suffix).
func (t *btree) insert(key Key, ref objRef) {
	root := t.root
	if len(root.keys) >= btreeOrder {
		newRoot := &btreeNode{leaf: false}
		newRoot.children = append(newRoot.children, root)
		t.splitChild(newRoot, 0)
		t.root = newRoot
		root = newRoot
	}
	t.insertNonFull(root, key, ref)
	t.size++
}

func (t *btree) splitChild(parent *btreeNode, i int) {
	child := parent.children[i]
	mid := len(child.keys) / 2
	right := &btreeNode{leaf: child.leaf}
	if child.leaf {
		right.keys = append(right.keys, child.keys[mid:]...)
		right.refs = append(right.refs, child.refs[mid:]...)
		child.keys = child.keys[:mid]
		child.refs = child.refs[:mid]
		right.next = child.next
		child.next = right
		// Leaf split: parent separator is right's first key (copied up).
		parent.keys = append(parent.keys, nil)
		copy(parent.keys[i+1:], parent.keys[i:])
		parent.keys[i] = right.keys[0]
	} else {
		// Internal split: middle key moves up.
		upKey := child.keys[mid]
		right.keys = append(right.keys, child.keys[mid+1:]...)
		right.children = append(right.children, child.children[mid+1:]...)
		child.keys = child.keys[:mid]
		child.children = child.children[:mid+1]
		parent.keys = append(parent.keys, nil)
		copy(parent.keys[i+1:], parent.keys[i:])
		parent.keys[i] = upKey
	}
	parent.children = append(parent.children, nil)
	copy(parent.children[i+2:], parent.children[i+1:])
	parent.children[i+1] = right
}

func (t *btree) insertNonFull(n *btreeNode, key Key, ref objRef) {
	for !n.leaf {
		i := upperBound(n.keys, key)
		child := n.children[i]
		if len(child.keys) >= btreeOrder {
			t.splitChild(n, i)
			if CompareKeys(key, n.keys[i]) >= 0 {
				child = n.children[i+1]
			} else {
				child = n.children[i]
			}
		}
		n = child
	}
	i := upperBound(n.keys, key)
	n.keys = append(n.keys, nil)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = key
	n.refs = append(n.refs, objRef{})
	copy(n.refs[i+1:], n.refs[i:])
	n.refs[i] = ref
}

// upperBound returns the first position whose key is > key.
func upperBound(keys []Key, key Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareKeys(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerBound returns the first position whose key is >= key.
func lowerBound(keys []Key, key Key) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if CompareKeys(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// iterator walks leaves in ascending key order.
type iterator struct {
	node *btreeNode
	pos  int
}

// seek positions the iterator at the first key >= key (nil key = minimum).
func (t *btree) seek(key Key) iterator {
	n := t.leafFor(key)
	it := iterator{node: n, pos: lowerBound(n.keys, key)}
	it.advanceLeaf()
	return it
}

// seekAfter positions the iterator at the first key > key. Tree keys are
// unique (the oid suffix), so seeking after a key the tree returned
// resumes exactly behind it, whatever was inserted in between.
func (t *btree) seekAfter(key Key) iterator {
	n := t.leafFor(key)
	it := iterator{node: n, pos: upperBound(n.keys, key)}
	it.advanceLeaf()
	return it
}

// leafFor descends to the leaf key belongs in (nil = the first leaf).
// Separators are copies of right-leaf first keys: child i holds keys <
// keys[i]; child i+1 holds keys >= keys[i].
func (t *btree) leafFor(key Key) *btreeNode {
	n := t.root
	for !n.leaf {
		i := 0
		for i < len(n.keys) && CompareKeys(key, n.keys[i]) >= 0 {
			i++
		}
		n = n.children[i]
	}
	return n
}

// advanceLeaf moves an iterator positioned past its leaf's last key onto
// the next leaf's first.
func (it *iterator) advanceLeaf() {
	for it.node != nil && it.pos >= len(it.node.keys) {
		it.node = it.node.next
		it.pos = 0
	}
}

// valid reports whether the iterator points at an entry.
func (it *iterator) valid() bool {
	return it.node != nil && it.pos < len(it.node.keys)
}

// entry returns the current key and ref.
func (it *iterator) entry() (Key, objRef) {
	return it.node.keys[it.pos], it.node.refs[it.pos]
}

// next advances to the following entry.
func (it *iterator) next() {
	it.pos++
	it.advanceLeaf()
}
