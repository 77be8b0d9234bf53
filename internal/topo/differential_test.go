package topo

import (
	"cmp"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// The differential gate for collapsing the two sharded-store clients into
// one: on seeded clusters in both placement modes, the single
// dsos.Client.QueryEx must return what the deleted implementations did —
// topo.HashCluster.Query (collect, dedup by origin, sort) in hash mode and
// the old dsos.Client.QueryEx in round-robin mode. Each case is checked
// two ways: against referenceQuery, the old collect-and-sort merge kept
// below, and against a digest of (objects, Failed, LostGroups, Partial,
// Repaired) recorded by running the same scenario on the parent commit's
// code before it was deleted. The digests were recorded from the
// materialising QueryEx (scan every member whole, then merge), so they
// also hold the streaming dsos.Cursor that replaced it to the same rows,
// report and read repair; its limited reads are held to the reference's
// head.
//
// One difference was found and kept: HashCluster.Query merged every query
// by the identity index's key (job_rank_time) whatever index was asked
// for, so its job_time_rank and time_job_rank results came back in
// job_rank_time order. The single client orders by the index queried, as
// the round-robin client always did. Those queries carry no parent digest
// and are held to the reference merge alone.
//
// The post-grow and post-shrink cases replaced two mid-migration ones when
// rebalance became one step. Their digests, all four queries, were
// recorded on the parent commit's two-phase rebalance (begin, then cut
// over with no insert in between); the one-step Grow and Shrink reproduce
// them byte for byte.

// referenceQuery is the collect-and-sort merge HashCluster.Query used:
// gather every live member's rows in member order, keep the first copy of
// each non-zero origin, sort by (index key, member, position).
// values returns each row's Values, for comparing rows by value.
func values(objs []sos.Object) [][]any {
	out := make([][]any, len(objs))
	for i, o := range objs {
		out[i] = o.Values()
	}
	return out
}

func referenceQuery(t *testing.T, members []*dsos.Daemon, index string, attrs []int, from, to sos.Key) []sos.Object {
	type row struct {
		obj         sos.Object
		member, pos int
	}
	var rows []row
	seen := map[uint64]bool{}
	for i, d := range members {
		if !d.Up() {
			continue
		}
		cur, err := d.Container().Cursor(index, from, to)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; cur.Next(); p++ {
			if origin := cur.Origin(); origin != 0 {
				if seen[origin] {
					continue
				}
				seen[origin] = true
			}
			rows = append(rows, row{cur.Object(), i, p})
		}
	}
	keyOf := func(o sos.Object) sos.Key {
		k := make(sos.Key, len(attrs))
		for i, a := range attrs {
			k[i] = o.Value(a)
		}
		return k
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if c := compareKeys(keyOf(rows[i].obj), keyOf(rows[j].obj)); c != 0 {
			return c < 0
		}
		return rows[i].member < rows[j].member
	})
	out := make([]sos.Object, len(rows))
	for i, r := range rows {
		out[i] = r.obj
	}
	return out
}

// compareKeys orders the darshan index attributes (int64 and float64
// values) as the index trees do: NaN sorts after +Inf and equals every NaN.
func compareKeys(a, b sos.Key) int {
	for i := range a {
		var c int
		if av, ok := a[i].(int64); ok {
			c = cmp.Compare(av, b[i].(int64))
		} else {
			av, bv := a[i].(float64), b[i].(float64)
			switch aNaN, bNaN := av != av, bv != bv; {
			case av < bv, bNaN && !aNaN:
				c = -1
			case av > bv, aNaN && !bNaN:
				c = 1
			}
		}
		if c != 0 {
			return c
		}
	}
	return 0
}

// diffQueries are the paper's three query shapes, with the index key's
// attribute positions in the darshan schema.
var diffQueries = []struct {
	index    string
	attrs    []int
	from, to sos.Key
}{
	{"job_rank_time", []int{jsonmsg.ColJobID, jsonmsg.ColRank, jsonmsg.ColSegTimestamp}, nil, nil},
	{"job_rank_time", []int{jsonmsg.ColJobID, jsonmsg.ColRank, jsonmsg.ColSegTimestamp}, sos.Key{int64(2), int64(5)}, sos.Key{int64(2), int64(20)}},
	{"job_time_rank", []int{jsonmsg.ColJobID, jsonmsg.ColSegTimestamp, jsonmsg.ColRank}, sos.Key{int64(1)}, sos.Key{int64(3)}},
	{"time_job_rank", []int{jsonmsg.ColSegTimestamp, jsonmsg.ColJobID, jsonmsg.ColRank}, nil, nil},
}

// diffFill inserts n seeded objects. Timestamps repeat (i%40), so equal
// index keys land on different shards and the merge's tie-break matters.
func diffFill(t *testing.T, cl *dsos.Client, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		o := hashObj(int64(1+r.Intn(3)), int64(r.Intn(32)), float64(i%40))
		if err := cl.Insert(dsos.DarshanSchemaName, o); err != nil {
			t.Fatal(err)
		}
	}
}

func diffRoundRobin(t *testing.T, n, repl int) (*dsos.Cluster, *dsos.Client) {
	t.Helper()
	c := dsos.NewCluster(n, "darshan_data")
	c.SetReplication(repl)
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	return c, dsos.Connect(c)
}

func TestUnifiedQueryMatchesDeletedImplementations(t *testing.T) {
	wedged := errors.New("wedged")
	cases := []struct {
		name     string
		build    func(t *testing.T) *dsos.Client
		failed   []string
		lost     [][]string
		repaired int       // by the first query; later ones find nothing left
		golden   [4]string // per diffQueries entry, recorded on the parent commit
	}{
		{
			name: "hash-steady",
			build: func(t *testing.T) *dsos.Client {
				h := newHashCluster(t, 3)
				diffFill(t, h.cl, 300, 21)
				return h.cl
			},
			golden: [4]string{"51940c2372e848db", "be65e33b5ac8f3af"},
		},
		{
			name: "hash-post-grow",
			build: func(t *testing.T) *dsos.Client {
				h := newHashCluster(t, 3)
				diffFill(t, h.cl, 200, 22)
				if err := h.Grow("dsosd3"); err != nil {
					t.Fatal(err)
				}
				diffFill(t, h.cl, 100, 23)
				return h.cl
			},
			golden: [4]string{"f58e9f88755887b9", "bc26bafdce5921e9", "c6edcaf754486237", "22fbb0ed3f21c08e"},
		},
		{
			name: "hash-post-shrink-owner-down",
			build: func(t *testing.T) *dsos.Client {
				h := newHashCluster(t, 3)
				diffFill(t, h.cl, 200, 24)
				if err := h.Shrink("dsosd2"); err != nil {
					t.Fatal(err)
				}
				diffFill(t, h.cl, 100, 25)
				h.Daemon("dsosd1").Crash()
				return h.cl
			},
			failed: []string{"dsosd1"},
			lost:   [][]string{{"dsosd1"}},
			golden: [4]string{"74c97a8637f2ab01", "1a0305c350cc660f", "1f1ef66e8cf11fc4", "c709198f5b941e17"},
		},
		{
			name: "roundrobin-r2-replica-down",
			build: func(t *testing.T) *dsos.Client {
				c, cl := diffRoundRobin(t, 4, 2)
				// dsosd1 misses the middle of the stream, so those origins
				// are under-replicated; then dsosd2 goes down for the query.
				diffFill(t, cl, 80, 26)
				c.Daemons()[1].SetFault(wedged)
				diffFill(t, cl, 80, 27)
				c.Daemons()[1].SetFault(nil)
				diffFill(t, cl, 40, 28)
				c.Daemons()[2].SetFault(wedged)
				return cl
			},
			failed:   []string{"dsosd2"},
			repaired: 100,
			golden:   [4]string{"10023923444070c6", "320fb08f6f9988c8", "c4c791369bc2db74", "1a3c71229e3bc9a4"},
		},
		{
			name: "roundrobin-r1-x4",
			build: func(t *testing.T) *dsos.Client {
				_, cl := diffRoundRobin(t, 4, 1)
				diffFill(t, cl, 300, 29)
				return cl
			},
			golden: [4]string{"fa32fc47ee02517c", "b20df97dd99b07f0", "f54f98b8bc952853", "b2f79bfdb0d4eac4"},
		},
		{
			name: "roundrobin-r1-x4-shard-down",
			build: func(t *testing.T) *dsos.Client {
				c, cl := diffRoundRobin(t, 4, 1)
				diffFill(t, cl, 300, 30)
				c.Daemons()[3].Crash()
				return cl
			},
			failed: []string{"dsosd3"},
			lost:   [][]string{{"dsosd3"}},
			golden: [4]string{"fa85b6d75c5cdc2c", "679c4c688ae5b948", "7e193cf24200238f", "5b06c4ab676caecc"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cl := tc.build(t)
			members := cl.Cluster().Daemons()
			for qi, q := range diffQueries {
				// The reference reads first: QueryEx may read-repair, which
				// changes which member holds an origin's first copy.
				want := referenceQuery(t, members, q.index, q.attrs, q.from, q.to)
				// Limited cursors stop inside the merge with the full
				// query's head and report, and never repair: the full
				// query below still finds (and digests) every repair.
				for _, limit := range []int{1, 7, 1000, len(want) + 1} {
					cur, err := cl.Cursor(context.Background(), q.index, q.from, q.to, limit)
					if err != nil {
						t.Fatal(err)
					}
					var head []sos.Object
					for cur.Next() {
						head = append(head, cur.Object())
					}
					if n := min(limit, len(want)); !reflect.DeepEqual(values(head), values(want[:n])) {
						t.Fatalf("query %d (%s) limit %d: %d objects differ from the reference head", qi, q.index, limit, len(head))
					}
					if info := cur.Info(); !reflect.DeepEqual(info.Failed, tc.failed) || !reflect.DeepEqual(info.LostGroups, tc.lost) ||
						info.Partial != (len(tc.lost) > 0) || info.Repaired != 0 {
						t.Fatalf("query %d limit %d info = %+v, want failed %v lost %v and no repair", qi, limit, info, tc.failed, tc.lost)
					}
				}
				objs, info, err := cl.QueryEx(q.index, q.from, q.to)
				if err != nil {
					t.Fatal(err)
				}
				digest := sha256.Sum256([]byte(fmt.Sprintf("%v|%v|%v|%v|%d\n", objs, info.Failed, info.LostGroups, info.Partial, info.Repaired)))
				if got := fmt.Sprintf("%x", digest[:8]); tc.golden[qi] != "" && got != tc.golden[qi] {
					t.Fatalf("query %d (%s): digest %s differs from the parent commit's %s", qi, q.index, got, tc.golden[qi])
				}
				if !reflect.DeepEqual(values(objs), values(want)) {
					t.Fatalf("query %d (%s): %d objects differ from the reference merge's %d", qi, q.index, len(objs), len(want))
				}
				if len(objs) == 0 {
					t.Fatalf("query %d (%s) matched nothing; the scenario checks nothing", qi, q.index)
				}
				wantRepaired := 0
				if qi == 0 {
					wantRepaired = tc.repaired
				}
				if !reflect.DeepEqual(info.Failed, tc.failed) || !reflect.DeepEqual(info.LostGroups, tc.lost) ||
					info.Partial != (len(tc.lost) > 0) || info.Repaired != wantRepaired {
					t.Fatalf("query %d info = %+v, want failed %v lost %v repaired %d", qi, info, tc.failed, tc.lost, wantRepaired)
				}
			}
		})
	}
}
