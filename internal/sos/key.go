package sos

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tree keys are byte strings whose bytes.Compare order is CompareKeys'
// order of the values they encode. Every value's encoding is
// self-delimiting, so the encoding of a k-value Key is a byte prefix of
// every longer key that starts with the same k values, and a tree key (the
// index attributes, then the 8-byte big-endian object id) orders after the
// bound it starts with.

// canonicalNaN is the one NaN pattern a key holds; it encodes after +Inf.
const canonicalNaN = 0x7FF8000000000001

// appendValue appends v's order-preserving encoding to b.
func appendValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case int64:
		return appendWord(b, TypeInt64, uint64(v), nil)
	case uint64:
		return appendWord(b, TypeUint64, v, nil)
	case float64:
		return appendWord(b, TypeFloat64, math.Float64bits(v), nil)
	case string:
		return appendString(b, v)
	}
	panic(unsupportedKey(v))
}

// unsupportedKey is the panic message for a key value of no attribute type.
//
//lint:allow hotalloc a panic's message, never on a working path
func unsupportedKey(v any) string { return fmt.Sprintf("sos: unsupported key type %T", v) }

// appendWord appends the order-preserving encoding of a row word of type
// t to b; a string word indexes strs.
func appendWord(b []byte, t Type, w uint64, strs []string) []byte {
	switch t {
	case TypeInt64:
		return binary.BigEndian.AppendUint64(b, w^1<<63)
	case TypeUint64:
		return binary.BigEndian.AppendUint64(b, w)
	case TypeFloat64:
		switch v := math.Float64frombits(w); {
		case v != v:
			w = canonicalNaN
		case v == 0:
			w = 0 // -0 is +0
		}
		if w>>63 == 0 {
			w |= 1 << 63
		} else {
			w = ^w
		}
		return binary.BigEndian.AppendUint64(b, w)
	case TypeString:
		return appendString(b, strs[w])
	}
	panic("sos: unsupported key type " + t.String())
}

// appendString appends the encoding of s: its bytes with each NUL escaped,
// then a terminator that sorts below every escaped byte.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if b = append(b, s[i]); s[i] == 0 {
			b = append(b, 0xFF)
		}
	}
	return append(b, 0, 1)
}

// appendKey appends the encoding of every value of k to b.
func appendKey(b []byte, k Key) []byte {
	for _, v := range k {
		b = appendValue(b, v)
	}
	return b
}
