package dsos

import (
	"bytes"
	"context"
	"hash/fnv"
	"math"
	"reflect"
	"strconv"
	"testing"

	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// FuzzCursorMatchesQueryEx: over random inserts into 1-4 shards at R 1-2,
// random typed bounds, a random limit and an optional down member, a
// drained Cursor equals the materialising reference (referenceQueryEx):
// the same rows in the same order, the same report, and for an unlimited
// read the same read repair; a limited read is the reference's head and
// repairs nothing. A mistyped bound is an error, never a panic.
//
// Input bytes, each read as 0 once the input runs out:
//
//	0 shards (1 + b%4)      1 replication (1 + b%2)
//	2 rows (12*b)           3 timestamp period (1 + b%64; shorter = more ties)
//	4 index (b%3)           5-6 from: element count (b%4), value seed
//	7-8 to: the same        9 b%8 == 7 mistypes a bound
//	10 limit (0 = none; else 1, 7, 1000, rows+1 or b, by b%5)
//	11 down member (b%(shards+1), 0 = none; b >= 128 crashes, else faults)
//	12 odd: member (b/2)%shards misses the middle third of the inserts
//
// The whole input also seeds the rows.
func FuzzCursorMatchesQueryEx(f *testing.F) {
	f.Add([]byte{3, 0, 100, 40, 2, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{3, 1, 120, 20, 0, 1, 7, 2, 12, 0, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(i int) int {
			if i < len(data) {
				return int(data[i])
			}
			return 0
		}
		shards, repl, rows, period := 1+at(0)%4, 1+at(1)%2, 12*at(2), 1+at(3)%64
		h := fnv.New64a()
		h.Write(data)
		seed := h.Sum64()
		build := func() (*Cluster, *Client) {
			c, cl := newDarshanCluster(t, shards)
			c.SetReplication(repl)
			r := rng.New(seed)
			for i := 0; i < rows; i++ {
				victim := c.Daemons()[(at(12)/2)%shards]
				if at(12)%2 == 1 && i == rows/3 {
					victim.SetFault(wedged)
				}
				if i == 2*rows/3 {
					victim.SetFault(nil)
				}
				// A refused insert (every replica faulted) is simply not
				// stored, on both clusters alike.
				_ = cl.Insert(DarshanSchemaName, sampleObject(int64(1+r.Intn(3)), int64(r.Intn(8)), float64(i%period), "write"))
			}
			if k := at(11) % (shards + 1); k > 0 {
				if d := c.Daemons()[k-1]; at(11) >= 128 {
					d.Crash()
				} else {
					d.SetFault(wedged)
				}
			}
			return c, cl
		}

		indices := DarshanIndices()
		spec := indices[at(4)%len(indices)]
		bound := func(n, v int) sos.Key {
			if n == 0 {
				return nil
			}
			k := make(sos.Key, n)
			for i, a := range spec.Attrs[:n] {
				switch a {
				case "job_id":
					k[i] = int64(v % 5)
				case "rank":
					k[i] = int64(v / 5 % 9)
				default:
					k[i] = float64(v % (period + 2))
				}
			}
			return k
		}
		from, to := bound(at(5)%4, at(6)), bound(at(7)%4, at(8))
		limit := 0
		if b := at(10); b > 0 {
			limit = []int{1, 7, 1000, rows + 1, b}[b%5]
		}
		c, cl := build()
		if at(9)%8 == 7 {
			if from == nil {
				from = sos.Key{"mistyped"}
			} else if _, isInt := from[0].(int64); isInt {
				from[0] = float64(1)
			} else {
				from[0] = int64(1)
			}
			if _, err := cl.Cursor(context.Background(), spec.Name, from, to, limit); err == nil {
				t.Fatalf("%s: mistyped bound %v accepted", spec.Name, from)
			}
			return
		}
		refC, refCl := build()
		want, wantInfo, werr := referenceQueryEx(refCl, spec.Name, from, to)
		before := counts(c)
		cur, err := cl.Cursor(context.Background(), spec.Name, from, to, limit)
		if (err != nil) != (werr != nil) {
			t.Fatalf("cursor error %v, reference error %v", err, werr)
		}
		if err != nil {
			return
		}
		got := drain(cur)
		info := cur.Info()
		if limit > 0 {
			want = want[:min(limit, len(want))]
			wantInfo.Repaired = 0
			refC = nil
		}
		if len(got)+len(want) > 0 && !reflect.DeepEqual(rowValues(got), rowValues(want)) {
			t.Fatalf("%s [%v, %v) limit %d: %d rows, reference %d", spec.Name, from, to, limit, len(got), len(want))
		}
		if !reflect.DeepEqual(info, wantInfo) {
			t.Fatalf("%s [%v, %v) limit %d: info %+v, reference %+v", spec.Name, from, to, limit, info, wantInfo)
		}
		if refC == nil {
			if after := counts(c); !reflect.DeepEqual(after, before) {
				t.Fatalf("a limited read repaired: %v -> %v", before, after)
			}
		} else if !reflect.DeepEqual(counts(c), counts(refC)) {
			t.Fatalf("repair left %v, the reference %v", counts(c), counts(refC))
		}
	})
}

// FuzzCSVFloat holds appendFixed6, the CSV renderer's float path, to the
// strconv call it replaces, byte for byte, on any float64 bits and on
// six-decimal values next to them.
func FuzzCSVFloat(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		0.0078125, 0.0000005, 2.5e-6, 1.0000005, 123.4565, // ties, and near ties, at the sixth decimal
		1 << 33, math.Nextafter(1<<33, 0), math.Nextafter(1<<33, 2<<33), -math.Nextafter(1<<33, 0),
		math.Float64frombits(math.Float64bits(1<<33) + 10), // shortest 8589934592.00002, 'f' 6 ...019
		1e-7, -1e-7, 1.6e9 + 0.123456, 0.001234, 4096, -1.5,
	} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		// The bits as a float, and as a six-decimal value up to about
		// 1.8e10 and its neighbours: below 2^33 the shortest form is
		// taken, above it the shortest form can round the other way.
		q := float64(bits>>10) / 1e6
		for _, v := range []float64{math.Float64frombits(bits), q, math.Nextafter(q, -1), math.Nextafter(q, 1<<34)} {
			got, want := appendFixed6([]byte("x,"), v), strconv.AppendFloat([]byte("x,"), v, 'f', 6, 64)
			if !bytes.Equal(got, want) {
				t.Fatalf("%#x (%v): appendFixed6 writes %q, strconv %q", math.Float64bits(v), v, got, want)
			}
		}
	})
}
