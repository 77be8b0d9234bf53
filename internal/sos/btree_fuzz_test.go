package sos

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"darshanldms/internal/rng"
)

// fuzzTreeKeys bounds the keys one FuzzBTreeMatchesReference input inserts:
// enough for leaves of every stride to split, and for a tree of three
// levels at the widest.
const fuzzTreeKeys = 6000

// keyGen draws one attribute's words for a run of keys: one word, words
// rising or falling by a power of two, or words clustered around one.
type keyGen struct {
	mode       byte
	w, step, m uint64
}

// gen reads a keyGen for an attribute of type t: a mode byte, a start
// value (keyDraw.value, so edges such as -1, ±0 and NaN come often), then
// the mode's parameter byte.
func (d *keyDraw) gen(t Type) keyGen {
	g := keyGen{mode: d.byte() % 4}
	switch v := d.value(t).(type) {
	case int64:
		g.w = uint64(v)
	case uint64:
		g.w = v
	case float64:
		g.w = math.Float64bits(v)
	}
	switch g.mode {
	case 1, 2:
		g.step = 1 << (d.byte() % 64)
	case 3:
		g.m = ^uint64(0) >> (64 - d.byte()%65)
	}
	return g
}

func (g *keyGen) next(r *rng.Stream) uint64 {
	switch g.mode {
	case 1:
		g.w += g.step
	case 2:
		g.w -= g.step
	case 3:
		return g.w ^ r.Uint64()&g.m
	}
	return g.w
}

// scan returns every key of the reference tree's leaf chain.
func (t *refBTree) scan() [][]byte {
	var out [][]byte
	for it := t.seek(nil, false); it.valid(); it.next() {
		out = append(out, it.key())
	}
	return out
}

// FuzzBTreeMatchesReference holds the packed tree to refBTree, the
// full-width tree it replaced: the same keys, inserted into both, give the
// same scan and the same seek(key, after), byte for byte, after every run
// of inserts, and the packed tree keeps its invariants (checkNode).
//
// Input bytes, each read as 0 once the input runs out: the attribute count
// (1 + b%3) and each attribute's type (b%3), then runs while input lasts:
// a length byte (1 + 8b keys) and one keyGen per attribute. Constant,
// rising and falling words of every step from 1 to 2^63, and clusters of
// every spread, cross every column width from 0 to 8 bytes and lower
// leaves' bases; keyDraw's edge values bring negative ints, ±0 and NaN.
func FuzzBTreeMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &keyDraw{data}
		types := make([]Type, 1+d.byte()%3)
		for i := range types {
			types[i] = Type(d.byte() % 3)
		}
		width := 8*len(types) + KeySuffixLen
		tr, ref := newBTree(width), newRefBTree(width)
		r := rng.New(1)
		gens := make([]keyGen, len(types))
		key := make([]byte, 0, width)
		for pos := 0; len(d.data) > 0 && pos < fuzzTreeKeys; {
			n := 1 + 8*int(d.byte())
			for j, typ := range types {
				gens[j] = d.gen(typ)
			}
			for range min(n, fuzzTreeKeys-pos) {
				key = key[:0]
				for j, typ := range types {
					key = appendWord(key, typ, gens[j].next(r))
				}
				key = binary.BigEndian.AppendUint32(key, uint32(pos))
				tr.insert(key)
				ref.insert(key)
				pos++
			}
			matchTrees(t, tr, ref, r)
		}
	})
}

// matchTrees fails t unless tr and ref hold the same keys, tr's nodes keep
// their invariants, and both seek every probe to the same keys: stored
// keys, their prefixes of every length, keys one byte longer, stored keys
// with a byte changed, and random keys, each sought at and after.
func matchTrees(t *testing.T, tr *btree, ref *refBTree, r *rng.Stream) {
	t.Helper()
	got, want := tr.scan(), ref.scan()
	if tr.size != ref.size || len(got) != len(want) {
		t.Fatalf("the packed tree holds %d keys (size %d), the reference %d (size %d)", len(got), tr.size, len(want), ref.size)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("scan key %d: packed %x, reference %x", i, got[i], want[i])
		}
	}
	checkNode(t, tr, tr.root, nil, nil)
	for range 200 {
		k := want[r.Intn(len(want))]
		var probe []byte
		switch r.Intn(5) {
		case 0:
			probe = k
		case 1:
			probe = k[:r.Intn(len(k)+1)]
		case 2:
			probe = append(bytes.Clone(k), 0)
		case 3:
			probe = bytes.Clone(k)
			probe[r.Intn(len(probe))] = byte(r.Uint64())
		case 4:
			probe = binary.BigEndian.AppendUint64(nil, r.Uint64())
			probe = append(probe, k[8:]...)
			probe[r.Intn(len(probe))] = byte(r.Uint64())
		}
		for _, after := range []bool{false, true} {
			it, rit := tr.seek(probe, after), ref.seek(probe, after)
			for step := 0; step < 3; step++ {
				if it.valid() != rit.valid() {
					t.Fatalf("seek(%x, after=%v) step %d: packed valid %v, reference %v", probe, after, step, it.valid(), rit.valid())
				}
				if !it.valid() {
					break
				}
				if g := it.node.appendKey(nil, it.i); !bytes.Equal(g, rit.key()) || it.pos() != rit.pos() {
					t.Fatalf("seek(%x, after=%v) step %d: packed %x, reference %x", probe, after, step, g, rit.key())
				}
				it.next()
				rit.next()
			}
		}
	}
}
