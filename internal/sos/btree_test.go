package sos

import (
	"bytes"
	"encoding/binary"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"darshanldms/internal/rng"
)

// treeKey is the tree key of the attribute values k and slab position pos.
func treeKey(k Key, pos int) []byte {
	return binary.BigEndian.AppendUint32(appendKey(nil, k), uint32(pos))
}

// scan returns every key of the leaf chain, in chain order.
func (t *btree) scan() [][]byte {
	var out [][]byte
	for it := t.seek(nil, false); it.valid(); it.next() {
		out = append(out, it.node.appendKey(nil, it.i))
	}
	return out
}

func TestBTreeInsertSeekProperty(t *testing.T) {
	f := func(vals []int64) bool {
		tr := newBTree(8 + KeySuffixLen)
		for i, v := range vals {
			tr.insert(treeKey(Key{v}, i))
		}
		// Full scan must be sorted and complete.
		keys := tr.scan()
		for i := 1; i < len(keys); i++ {
			if bytes.Compare(keys[i-1], keys[i]) >= 0 {
				return false
			}
		}
		return len(keys) == len(vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeSeekSemantics(t *testing.T) {
	tr := newBTree(8 + KeySuffixLen)
	for i := 0; i < 1000; i += 2 { // even keys only
		tr.insert(treeKey(Key{int64(i)}, i))
	}
	// Seeking an odd key lands on the next even one.
	it := tr.seek(appendKey(nil, Key{int64(501)}), false)
	if !it.valid() {
		t.Fatal("seek past data")
	}
	if pos := it.pos(); pos != 502 {
		t.Fatalf("seek(501) found %d", pos)
	}
	// Seeking beyond the maximum is invalid.
	if it := tr.seek(appendKey(nil, Key{int64(5000)}), false); it.valid() {
		t.Fatal("seek beyond max should be invalid")
	}
}

// insertPatterns are the key orders a tree must stay correct under, as
// attribute values stored at rising slab positions. The per-region
// patterns are the job_rank_time shape: regions, each appended to in
// rising time, interleaved at random; 64 regions of 1024 keys is the
// bench's rows per (job, rank), and 16 of 8192 spans many leaves a region.
// Each in-order pattern, descending included, has enough keys for three
// levels of leaves.
var insertPatterns = map[string]func() []Key{
	"ascending": func() []Key {
		return seqKeys(200000, func(i int) Key { return Key{int64(i)} })
	},
	"descending": func() []Key {
		return seqKeys(200000, func(i int) Key { return Key{int64(-i)} })
	},
	"random": func() []Key {
		r := rng.New(1)
		return seqKeys(60000, func(int) Key { return Key{r.Float64()} })
	},
	"per-region":      func() []Key { return regionKeys(64, 1024) },
	"per-region-long": func() []Key { return regionKeys(16, 8192) },
	"all-equal": func() []Key {
		return seqKeys(200000, func(int) Key { return Key{int64(7), 1.5} })
	},
}

// regionKeys appends n keys to each of regions (job, rank) regions in
// rising time, choosing the region of each key at random.
func regionKeys(regions, n int) []Key {
	r := rng.New(2)
	next := make([]int, regions)
	return seqKeys(regions*n, func(int) Key {
		reg := r.Intn(regions)
		for next[reg] == n {
			reg = (reg + 1) % regions
		}
		next[reg]++
		return Key{int64(reg / 8), int64(reg % 8), float64(next[reg])}
	})
}

func seqKeys(n int, f func(int) Key) []Key {
	out := make([]Key, n)
	for i := range out {
		out[i] = f(i)
	}
	return out
}

// TestBTreeStructure builds a tree of three or more levels under each
// insertion pattern and checks its invariants: the leaf chain is strictly
// ascending, every separator s has left < s <= right, every leaf is at
// the same depth, every internal node's key array holds nodeBytes/w
// separators of width w, every leaf's keys lie inside its layout and fit
// its array at its stride, seek agrees with sort.Search on a sorted copy of
// the keys, and size is exact. In-order patterns fill their leaves.
func TestBTreeStructure(t *testing.T) {
	for name, pattern := range insertPatterns {
		t.Run(name, func(t *testing.T) {
			keys := pattern()
			tr := newBTree(8*len(keys[0]) + KeySuffixLen)
			var want [][]byte
			for i, k := range keys {
				key := treeKey(k, i)
				tr.insert(key)
				want = append(want, key)
			}
			slices.SortFunc(want, bytes.Compare)
			if got := tr.scan(); tr.size != len(want) || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Fatalf("size %d, leaf chain of %d keys, want the %d inserted in order", tr.size, len(got), len(want))
			}
			depth, leaves, room := checkNode(t, tr, tr.root, nil, nil)
			if depth < 3 {
				t.Fatalf("a tree of %d levels; the test needs three", depth)
			}
			fill := float64(tr.size) / float64(room)
			t.Logf("%d keys, %d levels, %d leaves (%.1f keys each), leaf fill %.1f%%", tr.size, depth, leaves, float64(tr.size)/float64(leaves), 100*fill)
			if name != "random" && fill < 0.9 {
				t.Errorf("leaf fill %.1f%%, want >= 90%% for keys arriving in order", 100*fill)
			}
			r := rng.New(3)
			for range 2000 {
				probe := want[r.Intn(len(want))]
				switch r.Intn(3) {
				case 0: // an attribute prefix
					probe = probe[:r.Intn(len(probe)-KeySuffixLen)]
				case 1: // a key between two stored ones
					probe = append(slices.Clone(probe), 0)
				}
				for _, after := range []bool{false, true} {
					i := sort.Search(len(want), func(i int) bool {
						c := bytes.Compare(want[i], probe)
						return c > 0 || c == 0 && !after
					})
					it := tr.seek(probe, after)
					if it.valid() != (i < len(want)) || it.valid() && !bytes.Equal(it.node.appendKey(nil, it.i), want[i]) {
						t.Fatalf("seek(%x, after=%v) disagrees with sort.Search's %d of %d", probe, after, i, len(want))
					}
				}
			}
		})
	}
}

// checkNode checks the subtree of tr under n, whose keys must lie in
// [lo, hi) (nil = open), and returns its depth, its leaf count and the
// keys its leaves hold at their strides.
func checkNode(t *testing.T, tr *btree, n *btreeNode, lo, hi []byte) (depth, leaves, room int) {
	t.Helper()
	if n.leaf {
		checkLeaf(t, tr, n, lo, hi)
		return 1, 1, (nodeBytes - 8) / max(int(n.stride), 1)
	}
	w := tr.width
	if cap(n.keys) != nodeBytes/w*w || len(n.keys)%w != 0 || len(n.keys) == 0 {
		t.Fatalf("a node of %d key bytes in an array of %d; want keys of %d bytes in one of %d", len(n.keys), cap(n.keys), w, nodeBytes/w*w)
	}
	nkeys := len(n.keys) / w
	for i := range nkeys {
		k := sepAt(n, i, w)
		if lo != nil && bytes.Compare(k, lo) < 0 || hi != nil && bytes.Compare(k, hi) >= 0 || i > 0 && bytes.Compare(sepAt(n, i-1, w), k) >= 0 {
			t.Fatalf("key %x is out of order or outside [%x, %x)", k, lo, hi)
		}
	}
	if len(n.children) != nkeys+1 {
		t.Fatalf("%d children under %d separators", len(n.children), nkeys)
	}
	for i, child := range n.children {
		clo, chi := lo, hi
		if i > 0 {
			clo = sepAt(n, i-1, w)
		}
		if i < nkeys {
			chi = sepAt(n, i, w)
		}
		d, l, c := checkNode(t, tr, child, clo, chi)
		if i > 0 && d != depth {
			t.Fatalf("leaves at depths %d and %d", depth, d)
		}
		depth, leaves, room = d, leaves+l, room+c
	}
	return depth + 1, leaves, room
}

// sepAt returns internal node n's i-th separator, of width w.
func sepAt(n *btreeNode, i, w int) []byte { return n.keys[i*w : i*w+w] }

// checkLeaf checks leaf n's layout and keys: one column per attribute and
// the position, laid back to back at the stride, each at most 8 bytes wide
// (4 for the position); a key count that fits the array at the stride,
// with 8 bytes to spare; every key's columns inside [base, top]; packed
// keys ascending bytewise and decoding to tree keys ascending inside
// [lo, hi).
func checkLeaf(t *testing.T, tr *btree, n *btreeNode, lo, hi []byte) {
	t.Helper()
	ncols := (tr.width-KeySuffixLen)/8 + 1
	if len(n.keys) != nodeBytes || len(n.cols) != ncols || n.n < 1 {
		t.Fatalf("a leaf of %d keys in %d bytes with %d columns; want at least one key in %d bytes with %d", n.n, len(n.keys), len(n.cols), nodeBytes, ncols)
	}
	off := 0
	for j, c := range n.cols {
		if int(c.off) != off || c.width > 8 || j == ncols-1 && c.width > KeySuffixLen {
			t.Fatalf("column %d of %d: offset %d, width %d; want offset %d", j, ncols, c.off, c.width, off)
		}
		off += int(c.width)
	}
	s := int(n.stride)
	if s != off || int(n.n)*s+8 > nodeBytes {
		t.Fatalf("%d keys at stride %d (columns %d bytes) in a leaf of %d", n.n, s, off, nodeBytes)
	}
	var prev []byte
	for i := range int(n.n) {
		k := n.appendKey(nil, i)
		for j := range n.cols {
			c, v := &n.cols[j], value(k, j, ncols)
			if raw := binary.BigEndian.Uint64(n.keys[i*s+int(c.off):]) >> c.shift(); raw > c.span() || v < c.base || v > c.top() {
				t.Fatalf("key %d column %d: %#x outside [%#x, %#x]", i, j, v, c.base, c.top())
			}
		}
		if lo != nil && bytes.Compare(k, lo) < 0 || hi != nil && bytes.Compare(k, hi) >= 0 || prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("leaf key %x is out of order or outside [%x, %x)", k, lo, hi)
		}
		if i > 0 && bytes.Compare(n.keys[(i-1)*s:i*s], n.keys[i*s:(i+1)*s]) >= 0 {
			t.Fatalf("packed keys %d and %d are out of order", i-1, i)
		}
		prev = k
	}
}

// TestSteadyStateInsertAllocs: once the slab has room, an insert into a
// container with the three darshan-shaped indices allocates only its
// share of node splits, well under once per row.
func TestSteadyStateInsertAllocs(t *testing.T) {
	c := newTestContainer(t)
	for _, spec := range []IndexSpec{
		{Name: "job_time_rank", Schema: "darshan_event", Attrs: []string{"job_id", "timestamp", "rank"}},
		{Name: "time_job_rank", Schema: "darshan_event", Attrs: []string{"timestamp", "job_id", "rank"}},
	} {
		if _, err := c.AddIndex(spec); err != nil {
			t.Fatal(err)
		}
	}
	const warm, runs = 20000, 4000
	rows := make([]Object, warm+runs+1)
	for i := range rows {
		rows[i] = NewObject(int64(i%3), int64(i%64), float64(i), "write", int64(i))
	}
	for _, o := range rows[:warm] {
		if err := c.Insert("darshan_event", o); err != nil {
			t.Fatal(err)
		}
	}
	next := warm
	allocs := testing.AllocsPerRun(runs, func() {
		if err := c.Insert("darshan_event", rows[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs >= 1 {
		t.Fatalf("a steady-state insert allocates %.0f times", allocs)
	}
	if got := c.Index("time_job_rank").Len(); got != next {
		t.Fatalf("indexed %d of %d rows", got, next)
	}
}
