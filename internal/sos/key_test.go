package sos

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"testing"
)

// keyDraw reads fuzz input as key values, each byte read as 0 once the
// input runs out.
type keyDraw struct{ data []byte }

func (d *keyDraw) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

func (d *keyDraw) u64() uint64 {
	var v uint64
	for range 8 {
		v = v<<8 | uint64(d.byte())
	}
	return v
}

// CompareKeys orders composite keys element-wise: the documented order of
// Key values, which the tree's byte keys (key.go) encode and which the
// tests hold them to. Element types: int64, uint64, float64, and string
// for comparing whole rows. Floats are totally ordered: -0 equals +0, and
// NaN sorts after +Inf and equals every NaN. Shorter keys order before
// longer ones with an equal prefix (enabling prefix scans).
func CompareKeys(a, b Key) int {
	for i := range min(len(a), len(b)) {
		if c := compareValue(a[i], b[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(len(a), len(b))
}

func compareValue(a, b any) int {
	switch av := a.(type) {
	case int64:
		return cmp.Compare(av, b.(int64))
	case uint64:
		return cmp.Compare(av, b.(uint64))
	case float64:
		bv := b.(float64)
		switch aNaN, bNaN := av != av, bv != bv; {
		case av < bv, bNaN && !aNaN:
			return -1
		case av > bv, aNaN && !bNaN:
			return 1
		}
		return 0
	case string:
		return cmp.Compare(av, b.(string))
	}
	panic(fmt.Sprintf("sos: unsupported key type %T", a))
}

// keyEdges are the values where an order-preserving encoding goes wrong
// first: extremes, both zeros, subnormals, infinities and NaN payloads.
var keyEdges = map[Type][]any{
	TypeInt64:  {int64(math.MinInt64), int64(math.MinInt64 + 1), int64(-1), int64(0), int64(1), int64(math.MaxInt64)},
	TypeUint64: {uint64(0), uint64(1), uint64(1 << 63), uint64(math.MaxUint64)},
	TypeFloat64: {
		math.Inf(-1), -math.MaxFloat64, -1.0, -math.SmallestNonzeroFloat64, math.Copysign(0, -1), 0.0,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF), 1.0, math.MaxFloat64, math.Inf(1),
		math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000000),
		math.Float64frombits(0x7FFFFFFFFFFFFFFF),
	},
}

// value draws one value of type t: an even selector byte picks an edge
// value, an odd one raw bits.
func (d *keyDraw) value(t Type) any {
	sel := d.byte()
	if sel%2 == 0 {
		edges := keyEdges[t]
		return edges[int(sel/2)%len(edges)]
	}
	switch t {
	case TypeInt64:
		return int64(d.u64())
	case TypeUint64:
		return d.u64()
	}
	return math.Float64frombits(d.u64())
}

// FuzzKeyOrder holds the tree's byte keys to CompareKeys, the documented
// order of Key values. Two keys are drawn over one list of 1-4 attribute
// types, each an index attribute type, with independent lengths from 0 to
// the whole list, and:
//
//   - bytes.Compare of their encodings equals CompareKeys;
//   - the shorter key's encoding is a prefix of the longer one's exactly
//     when the longer key starts with the shorter key's values.
//
// Input bytes, each read as 0 once the input runs out: the type count
// (1 + b%4), each type (b%3), the two lengths (b % (types+1)), then per
// position a share byte (even: both keys get one value) and the values'
// draws (keyDraw.value).
func FuzzKeyOrder(f *testing.F) {
	f.Add([]byte{0, 2, 1, 1, 1, 22, 20})         // NaN vs +Inf
	f.Add([]byte{0, 1, 1, 1, 1, 2, 6})           // 1 vs MaxUint64
	f.Add([]byte{1, 0, 2, 1, 2, 0, 0, 1, 11, 3}) // a one-value bound vs a key
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &keyDraw{data}
		types := make([]Type, 1+d.byte()%4)
		for i := range types {
			types[i] = Type(d.byte() % 3)
		}
		a, b := make(Key, int(d.byte())%(len(types)+1)), make(Key, int(d.byte())%(len(types)+1))
		for i := range max(len(a), len(b)) {
			share := d.byte()%2 == 0
			va := d.value(types[i])
			vb := va
			if !share {
				vb = d.value(types[i])
			}
			if i < len(a) {
				a[i] = va
			}
			if i < len(b) {
				b[i] = vb
			}
		}
		ea, eb := appendKey(nil, a), appendKey(nil, b)
		if got, want := bytes.Compare(ea, eb), CompareKeys(a, b); got != want {
			t.Fatalf("%#v vs %#v: the encodings compare %d, CompareKeys %d", a, b, got, want)
		}
		short, long, es, el := a, b, ea, eb
		if len(a) > len(b) {
			short, long, es, el = b, a, eb, ea
		}
		if prefix, equal := bytes.HasPrefix(el, es), CompareKeys(short, long[:len(short)]) == 0; prefix != equal {
			t.Fatalf("%#v vs %#v: encoding is a prefix %v, values equal %v", short, long, prefix, equal)
		}
	})
}

// TestNaNKeepsTheIndexOrdered: a NaN in an indexed float sorts after +Inf
// and equals every NaN, so it cannot break the tree's order. With every
// 97th of 20000 timestamps NaN, a time range returns every non-NaN row in
// it, and a full scan has no inversion and ends with the NaN rows.
func TestNaNKeepsTheIndexOrdered(t *testing.T) {
	c := NewContainer("nan")
	sch, err := NewSchema("ev", []AttrSpec{{"timestamp", TypeFloat64}, {"job_id", TypeInt64}, {"rank", TypeInt64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddSchema(sch); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddIndex(IndexSpec{Name: "time_job_rank", Schema: "ev", Attrs: []string{"timestamp", "job_id", "rank"}}); err != nil {
		t.Fatal(err)
	}
	nans, inRange := 0, 0
	for i := range 20000 {
		ts := float64(i)
		if i%97 == 0 {
			ts = math.NaN()
			nans++
		} else if i >= 10000 && i < 11000 {
			inRange++
		}
		if err := c.Insert("ev", NewObject(ts, int64(i%3), int64(i%64))); err != nil {
			t.Fatal(err)
		}
	}
	objs, err := c.Range("time_job_rank", Key{10000.0}, Key{11000.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != inRange {
		t.Fatalf("[10000, 11000) returned %d of the %d non-NaN rows in it", len(objs), inRange)
	}
	all, err := c.Range("time_job_rank", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(all); i++ {
		if CompareKeys(Key(all[i-1].Values()), Key(all[i].Values())) > 0 {
			t.Fatalf("row %d out of order: %v after %v", i, all[i], all[i-1])
		}
	}
	for _, o := range all[len(all)-nans:] {
		if ts := o.Float(0); !math.IsNaN(ts) {
			t.Fatalf("timestamp %v among the last %d rows, which should be the NaN ones", ts, nans)
		}
	}
}
