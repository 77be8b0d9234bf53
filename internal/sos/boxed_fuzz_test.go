package sos

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// The differential schema: one attribute of each type and a second
// string, under indices that lead with each index attribute type.
var (
	boxedAttrs = []AttrSpec{
		{Name: "i", Type: TypeInt64},
		{Name: "u", Type: TypeUint64},
		{Name: "f", Type: TypeFloat64},
		{Name: "s", Type: TypeString},
		{Name: "t", Type: TypeString},
	}
	boxedIndices = []IndexSpec{
		{Name: "i", Schema: "ev", Attrs: []string{"i"}},
		{Name: "u_f", Schema: "ev", Attrs: []string{"u", "f"}},
		{Name: "f_u_i", Schema: "ev", Attrs: []string{"f", "u", "i"}},
		{Name: "i_f", Schema: "ev", Attrs: []string{"i", "f"}},
	}
)

// Edge values a selector byte picks from.
var (
	boxedInts   = []int64{0, -1, 1, math.MinInt64, math.MaxInt64}
	boxedUints  = []uint64{0, 1, math.MaxUint64, 1 << 63}
	boxedFloats = []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25,
		math.Float64frombits(1), math.Float64frombits(0xFFF8000000000001)}
	boxedStrs = []string{"", "a", "a\x00", "\x00", "a\x00b", "b", "N/A"}
)

// boxedValue is the value selector sel picks for an attribute of type t:
// an even selector an edge value, an odd one a small ordinary value.
func boxedValue(t Type, sel byte) any {
	k := int(sel >> 1)
	even := sel&1 == 0
	switch t {
	case TypeInt64:
		if even {
			return boxedInts[k%len(boxedInts)]
		}
		return int64(k) - 32
	case TypeUint64:
		if even {
			return boxedUints[k%len(boxedUints)]
		}
		return uint64(k)
	case TypeFloat64:
		if even {
			return boxedFloats[k%len(boxedFloats)]
		}
		return float64(k) / 4
	}
	if even {
		return boxedStrs[k%len(boxedStrs)]
	}
	return "k" + string(rune('a'+k%26))
}

// boxedRow is one row of a differential run: its values, and whether a
// RowBuilder builds it (else NewObject).
type boxedRow struct {
	vals    []any
	builder bool
}

// boxedRows decodes the fuzz input. data[0] holds flags: bit 0 stamps
// every row with an origin, bit 1 builds rows with a RowBuilder, bit 2
// alternates the two builders. Then each op byte is
//
//	op%4 < 2: a row, from the next five selector bytes (boxedValue);
//	op%4 = 2: a bad row: a byte b, then five selectors; b%6 < 5 gives
//	          attribute b%6 a value of another type, b%6 = 5 drops the
//	          last value;
//	op%4 = 3: a byte n, then 32(n+1) rows whose s values are all distinct:
//	          n = 127 passes a RowBuilder's table size.
func boxedRows(data []byte) (rows []boxedRow, origins bool) {
	if len(data) == 0 {
		return nil, false
	}
	flags := data[0]
	data = data[1:]
	origins = flags&1 != 0
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	builder := func() bool {
		if flags&4 != 0 {
			return len(rows)%2 == 0
		}
		return flags&2 != 0
	}
	selectRow := func() []any {
		vals := make([]any, len(boxedAttrs))
		for j, a := range boxedAttrs {
			vals[j] = boxedValue(a.Type, next())
		}
		return vals
	}
	for len(data) > 0 && len(rows) < 6000 {
		switch op := next(); op % 4 {
		case 0, 1:
			rows = append(rows, boxedRow{selectRow(), builder()})
		case 2:
			b := int(next() % 6)
			vals := selectRow()
			switch {
			case b == 5:
				vals = vals[:len(vals)-1]
			case boxedAttrs[b].Type == TypeString:
				vals[b] = int64(1)
			default:
				vals[b] = "x"
			}
			rows = append(rows, boxedRow{vals, false})
		case 3:
			n := 32 * (int(next()) + 1)
			for k := 0; k < n; k++ {
				rows = append(rows, boxedRow{[]any{int64(k), uint64(k % 5), float64(k % 7), fmt.Sprintf("d%05d", len(rows)), "t" + string(rune('0'+k%3))}, builder()})
			}
		}
	}
	return rows, origins
}

// typed builds r as the typed container takes it.
func (r boxedRow) typed(b *RowBuilder) Object {
	if !r.builder {
		return NewObject(r.vals...)
	}
	b.Begin()
	for j, v := range r.vals {
		switch v := v.(type) {
		case int64:
			b.SetInt(j, v)
		case uint64:
			b.SetUint(j, v)
		case float64:
			b.SetFloat(j, v)
		case string:
			b.SetStr(j, v, nil, 0)
		}
	}
	return b.Row()
}

func boxedSchema(tb testing.TB) *Schema {
	s, err := NewSchema("ev", boxedAttrs)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func newBoxedPair(tb testing.TB) (*Container, *refContainer) {
	typed, ref := NewContainer("diff"), newRefContainer("diff")
	if typed.AddSchema(boxedSchema(tb)) != nil || ref.AddSchema(boxedSchema(tb)) != nil {
		tb.Fatal("schema refused")
	}
	smallPages(typed, 3)
	for _, spec := range boxedIndices {
		if _, err := typed.AddIndex(spec); err != nil {
			tb.Fatal(err)
		}
		if _, err := ref.AddIndex(spec); err != nil {
			tb.Fatal(err)
		}
	}
	return typed, ref
}

// sameValue reports whether a typed value equals a boxed one bit for bit:
// a NaN equals a NaN of the same payload, and -0 differs from +0.
func sameValue(a, b any) bool {
	if fa, ok := a.(float64); ok {
		fb, ok := b.(float64)
		return ok && math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

func sameRow(o Object, r refObject) bool {
	if o.Len() != len(r) {
		return false
	}
	for i, v := range r {
		if !sameValue(o.Value(i), v) {
			return false
		}
	}
	return true
}

// boxedBounds returns the scan bounds the run compares an index over: the
// whole index, then prefixes of stored rows' keys of every length.
func boxedBounds(rows []refObject, attrs []int) [][2]Key {
	bounds := [][2]Key{{nil, nil}}
	prefix := func(r refObject, n int) Key {
		if n == 0 {
			return nil
		}
		k := make(Key, n)
		for j := range k {
			k[j] = r[attrs[j]]
		}
		return k
	}
	for j := 0; j < 8 && len(rows) > 0; j++ {
		a, b := rows[j*7919%len(rows)], rows[(j*104729+3)%len(rows)]
		bounds = append(bounds, [2]Key{prefix(a, j%(len(attrs)+1)), prefix(b, (j+1)%(len(attrs)+1))})
	}
	return bounds
}

// matchCursors fails unless every index of typed, over every bound, yields
// what the reference's does: the same tree keys, origins and values.
func matchCursors(t *testing.T, typed *Container, ref *refContainer, stored []refObject) {
	t.Helper()
	sch := boxedSchema(t)
	for _, spec := range boxedIndices {
		attrs := make([]int, len(spec.Attrs))
		for j, a := range spec.Attrs {
			attrs[j] = sch.AttrIndex(a)
		}
		for _, bd := range boxedBounds(stored, attrs) {
			tc, terr := typed.Cursor(spec.Name, bd[0], bd[1])
			rc, rerr := ref.Cursor(spec.Name, bd[0], bd[1])
			if terr != nil || rerr != nil {
				t.Fatalf("%s [%v, %v): typed error %v, reference error %v", spec.Name, bd[0], bd[1], terr, rerr)
			}
			for n := 0; ; n++ {
				tn, rn := tc.Next(), rc.Next()
				if tn != rn {
					t.Fatalf("%s [%v, %v): row %d exists in one container only", spec.Name, bd[0], bd[1], n)
				}
				if !tn {
					break
				}
				if !bytes.Equal(tc.Key(), rc.Key()) || tc.Origin() != rc.Origin() || !sameRow(tc.Object(), rc.Object()) {
					t.Fatalf("%s [%v, %v) row %d: typed %v origin %d, reference %v origin %d", spec.Name, bd[0], bd[1], n, tc.Object(), tc.Origin(), rc.Object(), rc.Origin())
				}
			}
		}
	}
}

// FuzzObjectsMatchBoxed holds the typed container to the []any one it
// replaced (reference_test.go): rows built by NewObject or a RowBuilder,
// inserted into both (the typed one in 8-row pages, so that rows are read
// back from sealed pages and a page still filling), must get the same
// Check verdicts, yield the same
// rows over every index and bound, and write the same snapshot bytes; the
// typed container's Restore must round-trip to the same rows. For the log,
// the v1 writer kept as the reference (appendV1) must still write the
// []any writer's bytes, and the v2 log the live writer writes must replay
// to the rows, origins and tokens the v1 log replays to. The input format
// is boxedRows'.
func FuzzObjectsMatchBoxed(f *testing.F) {
	f.Add([]byte{0, 0, 0, 2, 4, 6, 8, 1, 3, 5, 7, 9, 11})
	f.Add([]byte{3, 0, 0, 2, 0, 4, 6, 2, 1, 0, 0, 0, 0, 0, 3, 0})
	f.Add([]byte{6, 2, 5, 0, 0, 0, 0, 0, 3, 127, 1, 16, 16, 16, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, withOrigins := boxedRows(data)
		typed, ref := newBoxedPair(t)
		b := NewRowBuilder(boxedSchema(t))
		typedLog, v1Log, refLog := NewMemWAL(), NewMemWAL(), NewMemWAL()
		wal := NewWAL(typedLog)
		var frame Frame
		var kept []Object
		var stored []refObject
		var origins []uint64
		for k, r := range rows {
			o, ro := r.typed(b), refObject(r.vals)
			terr, rerr := typed.Check("ev", o), ref.Check("ev", ro)
			if (terr == nil) != (rerr == nil) {
				t.Fatalf("row %d %v: typed check %v, reference check %v", k, r.vals, terr, rerr)
			}
			if terr != nil {
				continue
			}
			var origin uint64
			if withOrigins {
				origin = uint64(k + 1)
			}
			typed.InsertChecked("ev", o, origin)
			ref.InsertChecked("ev", ro, origin)
			kept, stored, origins = append(kept, o), append(stored, ro), append(origins, origin)
			if err := wal.Append("ev", o, origin); err != nil {
				t.Fatal(err)
			}
			appendV1(t, v1Log, "ev", []Object{o}, []uint64{origin}, 0)
			rec, _, err := refAppendWALRecord(frame.Begin(), "ev", []refObject{ro}, []uint64{origin}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := frame.Commit(refLog, rec); err != nil {
				t.Fatal(err)
			}
		}
		matchCursors(t, typed, ref, stored)

		// Row records, then one batch of every row.
		if err := wal.AppendBatch("ev", kept, origins, 5); err != nil {
			t.Fatal(err)
		}
		if len(kept) > 0 {
			appendV1(t, v1Log, "ev", kept, origins, 5)
		}
		for rest, ro := origins, stored; len(ro) > 0; {
			rec, n, err := refAppendWALRecord(frame.Begin(), "ev", ro, rest, 5)
			if err != nil {
				t.Fatal(err)
			}
			if err := frame.Commit(refLog, rec); err != nil {
				t.Fatal(err)
			}
			rest, ro = rest[n:], ro[n:]
		}
		v1Bytes, refBytes := readLog(t, v1Log), readLog(t, refLog)
		if !bytes.Equal(v1Bytes, refBytes) {
			t.Fatalf("v1 WAL bytes differ: typed %d bytes, reference %d", len(v1Bytes), len(refBytes))
		}

		var tsnap, rsnap bytes.Buffer
		if err := typed.Snapshot(&tsnap); err != nil {
			t.Fatal(err)
		}
		if err := ref.Snapshot(&rsnap); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tsnap.Bytes(), rsnap.Bytes()) {
			t.Fatalf("snapshot bytes differ: typed %d bytes, reference %d", tsnap.Len(), rsnap.Len())
		}

		restored, err := Restore(bytes.NewReader(tsnap.Bytes()))
		if err != nil {
			t.Fatalf("restore: %v", err)
		}
		boxedRestored, err := refRestore(bytes.NewReader(rsnap.Bytes()))
		if err != nil {
			t.Fatalf("reference restore: %v", err)
		}
		matchCursors(t, restored, boxedRestored, stored)
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil || !bytes.Equal(again.Bytes(), tsnap.Bytes()) {
			t.Fatalf("a restored container snapshots to other bytes (%v)", err)
		}

		// Up to floor 4 each log replays its row records, into a container
		// equal to the reference that snapshots to the same bytes, and stops
		// at the batch tagged 5; the v2 log replays to the v1 log's rows and
		// origins.
		replayed, _ := newBoxedPair(t)
		n := 0
		r2, err := ReplayWALTo(typedLog, 4, func(schema string, o Object, origin uint64) error {
			if !sameRow(o, stored[n]) || origin != origins[n] {
				return fmt.Errorf("replayed row %d is %v origin %d, want %v origin %d", n, o, origin, stored[n], origins[n])
			}
			n++
			return replayed.InsertOrigin(schema, o, origin)
		})
		if err != nil || n != len(stored) {
			t.Fatalf("replayed %d of %d rows: %v", n, len(stored), err)
		}
		matchCursors(t, replayed, ref, stored)
		replayedV1, _ := newBoxedPair(t)
		r1, err := ReplayWALTo(v1Log, 4, replayedV1.InsertOrigin)
		if err != nil || r1.Rows != r2.Rows || r1.Above != r2.Above || r1.Dropped != r2.Dropped {
			t.Fatalf("up to floor 4 the v1 log replays %+v (%v), the v2 log %+v", r1, err, r2)
		}
		var snap1, snap2 bytes.Buffer
		if err := replayedV1.Snapshot(&snap1); err != nil {
			t.Fatal(err)
		}
		if err := replayed.Snapshot(&snap2); err != nil || !bytes.Equal(snap1.Bytes(), snap2.Bytes()) {
			t.Fatalf("the v2 replay snapshots to other bytes than the v1 replay (%v)", err)
		}
		type logRow struct {
			obj    refObject
			origin uint64
		}
		var boxed []logRow
		if _, err := refReplayWALTo(v1Log, math.MaxUint64, func(_ string, o refObject, origin uint64) error {
			boxed = append(boxed, logRow{o, origin})
			return nil
		}); err != nil || len(boxed) != 2*len(stored) {
			t.Fatalf("the reference replayed %d of %d rows: %v", len(boxed), 2*len(stored), err)
		}
		n = 0
		if _, _, err := replayWAL(typedLog, func(_ string, o Object, origin uint64) error {
			if !sameRow(o, boxed[n].obj) || origin != boxed[n].origin {
				return fmt.Errorf("replayed row %d is %v origin %d, the v1 log's %v origin %d", n, o, origin, boxed[n].obj, boxed[n].origin)
			}
			n++
			return nil
		}); err != nil || n != len(boxed) {
			t.Fatalf("replayed %d of %d rows: %v", n, len(boxed), err)
		}
	})
}
