package sos

import (
	"fmt"
	"testing"
)

// lateShard returns benchShard's rows with a spooled backlog: every tenth
// run of 64 rows arrives 30 s (7,500 rows) late, so a tenth of the rows
// land in pages whose time range also spans the 30 s before them.
func lateShard(tb testing.TB, n int, indexes ...IndexSpec) *Container {
	tb.Helper()
	src := benchShard(tb, n)
	c := NewContainer("late")
	if err := c.AddSchema(src.Schema("ev")); err != nil {
		tb.Fatal(err)
	}
	for _, spec := range indexes {
		if _, err := c.AddIndex(spec); err != nil {
			tb.Fatal(err)
		}
	}
	insert := func(rows ...Object) {
		for _, o := range rows {
			if err := c.Insert("ev", o); err != nil {
				tb.Fatal(err)
			}
		}
	}
	const run, delay = 64, 7500
	var late [][]Object // the held runs, oldest first
	var due []int       // when each is released: delay rows after its first
	at := 0
	src.Scan("ev", func(o Object, _ uint64) bool {
		if at/run%10 == 9 {
			if at%run == 0 {
				late, due = append(late, nil), append(due, at+delay)
			}
			late[len(late)-1] = append(late[len(late)-1], o)
		} else {
			insert(o)
		}
		for at++; len(due) > 0 && due[0] <= at; late, due = late[1:], due[1:] {
			insert(late[0]...)
		}
		return true
	})
	for _, r := range late {
		insert(r...)
	}
	return c
}

// chunkedScan reads [from, to) of an index as a shard serves /query: in
// chunks of 256 rows, each from a cursor reopened just past the last key,
// up to limit rows (0: all). It returns the rows read.
func chunkedScan(tb testing.TB, c *Container, index string, from, to Key, limit int) int {
	var last []byte
	n := 0
	for {
		var cur Cursor
		var err error
		if last == nil {
			cur, err = c.Cursor(index, from, to)
		} else {
			cur, err = c.CursorAfter(index, last, to)
		}
		if err != nil {
			tb.Fatal(err)
		}
		got := 0
		for got < benchChunk && (limit == 0 || n < limit) && cur.Next() {
			last = cur.AppendKey(last[:0])
			_ = cur.Object()
			got, n = got+1, n+1
		}
		cur.Close()
		if got < benchChunk || n == limit {
			return n
		}
	}
}

// BenchmarkDerivedOrders prices each order served without a tree against
// a tree of its own, the kill criteria of serving it so (ROADMAP item 26):
// time_job_rank read from the pages, against treeOrder's tree, for its head
// of 1,000 rows and its 1 s and 300 s windows, each to stay within 5x of
// the tree's time; and one job's whole job_time_rank merged from its rank
// runs (mergeWalk), against the job_time_rank tree, within 3x. Both run on
// benchShard and on lateShard, read as chunkedScan reads them.
func BenchmarkDerivedOrders(b *testing.B) {
	const t0 = 1.6e9 + 500 // mid-shard: rows from 1.6e9 to ≈1.6e9+1111
	queries := []struct {
		name, index string
		from, to    Key
		limit       int
	}{
		{"time-head-1000", "time_job_rank", nil, nil, 1000},
		{"time-1s", "time_job_rank", Key{t0}, Key{t0 + 1}, 0},
		{"time-300s", "time_job_rank", Key{t0}, Key{t0 + 300}, 0},
		{"job", "job_time_rank", Key{int64(7)}, Key{int64(8)}, 0},
	}
	for _, shard := range []struct {
		name string
		make func(testing.TB, int, ...IndexSpec) *Container
	}{{"bench", benchShard}, {"late", lateShard}} {
		c := shard.make(b, benchShardRows, darshanIndexes...)
		spec := darshanIndexes[2]
		spec.Name = "tree_" + spec.Name
		treeOrder(b, c, spec)
		for _, q := range queries {
			for _, kind := range []string{"tree", "derived"} {
				index := q.index
				if kind == "tree" && index == "time_job_rank" {
					index = "tree_" + index
				}
				b.Run(fmt.Sprintf("%s/%s/%s", shard.name, q.name, kind), func(b *testing.B) {
					rows := 0
					for range b.N {
						if q.index == "job_time_rank" && kind == "derived" {
							rows = len(mergeScan(c, q.from, q.to))
						} else {
							rows = chunkedScan(b, c, index, q.from, q.to, q.limit)
						}
					}
					b.ReportMetric(float64(rows), "rows")
				})
			}
		}
	}
}

// benchChunk is the rows a shard serves from one cursor (dsos's queryChunk).
const benchChunk = 256
