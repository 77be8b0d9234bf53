package sos

import (
	"encoding/binary"
	"math"
)

// Tree keys are byte strings whose bytes.Compare order is the order of the
// values they encode. Every index attribute is an int64, a uint64 or a
// float64, each encoded in 8 bytes, so the encoding of a k-value Key is a
// byte prefix of every longer key that starts with the same k values, and
// a tree key (the index attributes, then the 4-byte big-endian slab
// position) orders after the bound it starts with. Floats are totally
// ordered: -0 equals +0, and NaN sorts after +Inf and equals every NaN.

// canonicalNaN is the one NaN pattern a key holds; it encodes after +Inf.
const canonicalNaN = 0x7FF8000000000001

// appendValue appends v's order-preserving encoding to b; v has the type of
// its index attribute (Index.CheckKey).
func appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case int64:
		return appendWord(b, TypeInt64, uint64(v))
	case uint64:
		return appendWord(b, TypeUint64, v)
	case float64:
		return appendWord(b, TypeFloat64, math.Float64bits(v))
	}
	panic("sos: key value of no index attribute type")
}

// appendWord appends the order-preserving encoding of a row word of type
// t to b.
func appendWord(b []byte, t Type, w uint64) []byte {
	return binary.BigEndian.AppendUint64(b, orderWord(t, w))
}

// orderWord returns the order-preserving encoding of a row word of type t
// as a number: its big-endian bytes are the word's key bytes.
func orderWord(t Type, w uint64) uint64 {
	switch t {
	case TypeInt64:
		return w ^ 1<<63
	case TypeUint64:
		return w
	case TypeFloat64:
		switch v := math.Float64frombits(w); {
		case v != v:
			w = canonicalNaN
		case v == 0:
			w = 0 // -0 is +0
		}
		if w>>63 == 0 {
			return w | 1<<63
		}
		return ^w
	}
	panic("sos: unsupported key type " + t.String())
}

// appendKey appends the encoding of every value of k to b.
func appendKey(b []byte, k Key) []byte {
	for _, v := range k {
		b = appendValue(b, v)
	}
	return b
}
