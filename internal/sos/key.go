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
		return binary.BigEndian.AppendUint64(b, uint64(v)^1<<63)
	case uint64:
		return binary.BigEndian.AppendUint64(b, v)
	case float64:
		bits := math.Float64bits(v)
		switch {
		case v != v:
			bits = canonicalNaN
		case v == 0:
			bits = 0 // -0 is +0
		}
		if bits>>63 == 0 {
			bits |= 1 << 63
		} else {
			bits = ^bits
		}
		return binary.BigEndian.AppendUint64(b, bits)
	case string:
		for i := 0; i < len(v); i++ {
			if b = append(b, v[i]); v[i] == 0 {
				b = append(b, 0xFF)
			}
		}
		return append(b, 0, 1)
	}
	panic(fmt.Sprintf("sos: unsupported key type %T", v))
}

// appendKey appends the encoding of every value of k to b.
func appendKey(b []byte, k Key) []byte {
	for _, v := range k {
		b = appendValue(b, v)
	}
	return b
}
