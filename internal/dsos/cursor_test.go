package dsos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
)

// drain reads a cursor to its end.
// rowValues returns each row's Values, for comparing rows by value.
func rowValues(objs []sos.Object) [][]any {
	out := make([][]any, len(objs))
	for i, o := range objs {
		out[i] = o.Values()
	}
	return out
}

func drain(cur *Cursor) []sos.Object {
	var out []sos.Object
	for cur.Next() {
		out = append(out, cur.Object())
	}
	return out
}

// diffCluster is one seeded cluster recipe. Timestamps repeat (i%40), so
// equal index keys land on different shards and the merge's tie-break
// matters, and every shard holds several chunks.
type diffCluster struct {
	name   string
	shards int
	repl   int
	build  func(t *testing.T, c *Cluster, cl *Client)
}

func fillSeeded(t *testing.T, cl *Client, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		o := sampleObject(int64(1+r.Intn(3)), int64(r.Intn(32)), float64(i%40), "write")
		if err := cl.Insert(DarshanSchemaName, o); err != nil {
			t.Fatal(err)
		}
	}
}

var wedged = errors.New("wedged")

var diffClusters = []diffCluster{
	{"r1-x4", 4, 1, func(t *testing.T, _ *Cluster, cl *Client) { fillSeeded(t, cl, 3000, 1) }},
	{"r1-x1", 1, 1, func(t *testing.T, _ *Cluster, cl *Client) { fillSeeded(t, cl, 700, 2) }},
	{"r1-x4-shard-down", 4, 1, func(t *testing.T, c *Cluster, cl *Client) {
		fillSeeded(t, cl, 3000, 3)
		c.Daemons()[2].Crash()
	}},
	{"r2-x4", 4, 2, func(t *testing.T, _ *Cluster, cl *Client) { fillSeeded(t, cl, 2000, 4) }},
	{"r2-x4-replica-down", 4, 2, func(t *testing.T, c *Cluster, cl *Client) {
		// dsosd1 misses the middle of the stream, so those origins are
		// under-replicated; then dsosd2 goes down for the query.
		fillSeeded(t, cl, 800, 5)
		c.Daemons()[1].SetFault(wedged)
		fillSeeded(t, cl, 800, 6)
		c.Daemons()[1].SetFault(nil)
		fillSeeded(t, cl, 400, 7)
		c.Daemons()[2].SetFault(wedged)
	}},
	{"r2-x3-group-dark", 3, 2, func(t *testing.T, c *Cluster, cl *Client) {
		fillSeeded(t, cl, 1500, 8)
		c.Daemons()[0].SetFault(wedged)
		c.Daemons()[1].Crash()
	}},
	{"r2-x4-nan-timestamps", 4, 2, func(t *testing.T, _ *Cluster, cl *Client) {
		// Every 7th timestamp is NaN, which sorts after +Inf and ties
		// only with another NaN, replicas included.
		r := rng.New(13)
		for i := 0; i < 2000; i++ {
			ts := float64(i % 40)
			if i%7 == 0 {
				ts = math.NaN()
			}
			if err := cl.Insert(DarshanSchemaName, sampleObject(int64(1+r.Intn(3)), int64(r.Intn(32)), ts, "write")); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

func (dc diffCluster) make(t *testing.T) (*Cluster, *Client) {
	t.Helper()
	c, cl := newDarshanCluster(t, dc.shards)
	c.SetReplication(dc.repl)
	dc.build(t, c, cl)
	return c, cl
}

// diffQueries are the paper's three query shapes plus open and empty
// ranges.
var diffQueries = []struct {
	index    string
	from, to sos.Key
}{
	{"job_rank_time", nil, nil},
	{"job_rank_time", sos.Key{int64(2), int64(5)}, sos.Key{int64(2), int64(20)}},
	{"job_rank_time", sos.Key{int64(2), int64(7)}, sos.Key{int64(2), int64(8)}},
	{"job_time_rank", sos.Key{int64(1)}, sos.Key{int64(3)}},
	{"time_job_rank", nil, nil},
	{"time_job_rank", sos.Key{float64(10)}, sos.Key{float64(12), int64(2)}},
	{"job_rank_time", sos.Key{int64(9)}, nil},
	{"time_job_rank", sos.Key{math.Inf(1)}, nil},
}

func counts(c *Cluster) []int {
	var out []int
	for _, d := range c.Daemons() {
		out = append(out, d.Count(DarshanSchemaName))
	}
	return out
}

// sameRows compares rows value by value with compareKeys' equality, under
// which, unlike reflect.DeepEqual's, a NaN equals a NaN.
func sameRows(a, b []sos.Object) bool {
	return slices.EqualFunc(a, b, func(x, y sos.Object) bool { return compareKeys(sos.Key(x.Values()), sos.Key(y.Values())) == 0 })
}

func sameReport(a, b QueryInfo) bool {
	return reflect.DeepEqual(a.Failed, b.Failed) && reflect.DeepEqual(a.LostGroups, b.LostGroups) && a.Partial == b.Partial
}

// TestCursorMatchesMaterialisingQuery: on every seeded cluster and query,
// QueryEx (a drained cursor) returns the reference's objects in the
// reference's order, ties included, with the same report and the same
// read repair, and leaves the cluster in the same state. A limited cursor
// returns the reference's head with the same report and repairs nothing.
func TestCursorMatchesMaterialisingQuery(t *testing.T) {
	for _, dc := range diffClusters {
		t.Run(dc.name, func(t *testing.T) {
			refC, refCl := dc.make(t)
			c, cl := dc.make(t)
			for qi, q := range diffQueries {
				before := counts(c)
				want, wantInfo, err := referenceQueryEx(refCl, q.index, q.from, q.to)
				if err != nil {
					t.Fatal(err)
				}
				for _, limit := range []int{1, 7, 1000, len(want) + 1} {
					cur, err := cl.Cursor(context.Background(), q.index, q.from, q.to, limit)
					if err != nil {
						t.Fatal(err)
					}
					got := drain(cur)
					if n := min(limit, len(want)); !sameRows(got, want[:n]) {
						t.Fatalf("query %d limit %d: %d rows differ from the reference head", qi, limit, len(got))
					}
					if info := cur.Info(); !sameReport(info, wantInfo) || info.Repaired != 0 {
						t.Fatalf("query %d limit %d: info %+v, reference %+v, and a limited read repairs nothing", qi, limit, info, wantInfo)
					}
				}
				if !reflect.DeepEqual(counts(c), before) {
					t.Fatalf("query %d: limited reads changed the cluster %v -> %v", qi, before, counts(c))
				}
				got, info, err := cl.QueryEx(q.index, q.from, q.to)
				if err != nil {
					t.Fatal(err)
				}
				if !sameRows(got, want) {
					t.Fatalf("query %d: %d rows differ from the reference's %d", qi, len(got), len(want))
				}
				if !reflect.DeepEqual(info, wantInfo) {
					t.Fatalf("query %d: info %+v, reference %+v", qi, info, wantInfo)
				}
				if !reflect.DeepEqual(counts(c), counts(refC)) {
					t.Fatalf("query %d: repair left %v, the reference %v", qi, counts(c), counts(refC))
				}
			}
		})
	}
}

// TestCursorBoundTypes: a bound whose type does not match the index
// attribute it lines up with is an error, not a panic in a merge
// goroutine that takes the process down.
func TestCursorBoundTypes(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	fillSeeded(t, cl, 50, 9)
	for _, q := range []struct {
		index    string
		from, to sos.Key
	}{
		{"time_job_rank", sos.Key{int64(3)}, sos.Key{int64(4)}},
		{"job_rank_time", sos.Key{int64(1), 2.5}, nil},
		{"job_rank_time", nil, sos.Key{"x"}},
		{"job_rank_time", sos.Key{int64(1), int64(2), 3.0, uint64(4)}, nil},
	} {
		if _, err := cl.Query(q.index, q.from, q.to); err == nil {
			t.Errorf("Query(%s, %v, %v) accepted a mistyped bound", q.index, q.from, q.to)
		}
		if _, err := cl.Cursor(context.Background(), q.index, q.from, q.to, 5); err == nil {
			t.Errorf("Cursor(%s, %v, %v) accepted a mistyped bound", q.index, q.from, q.to)
		}
	}
	if _, err := cl.Cursor(context.Background(), "bogus", nil, nil, 0); err == nil {
		t.Error("Cursor opened an unknown index")
	}
}

// TestCursorDrainAllocatesNothingPerRow: scanning and merging allocate per
// cursor (its chunk buffers and merge state), never per row — a 10k-row
// drain costs what a drain of a few rows costs, replicated or not.
func TestCursorDrainAllocatesNothingPerRow(t *testing.T) {
	for _, repl := range []int{1, 2} {
		c, cl := newDarshanCluster(t, 4)
		c.SetReplication(repl)
		for i := 0; i < 10000; i++ {
			if err := cl.Insert(DarshanSchemaName, sampleObject(int64(1+i%2), int64(i%64), float64(i), "write")); err != nil {
				t.Fatal(err)
			}
		}
		allocs := func(from, to sos.Key, rows int) float64 {
			return testing.AllocsPerRun(5, func() {
				cur, err := cl.Cursor(context.Background(), "time_job_rank", from, to, 0)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for cur.Next() {
					n++
				}
				if n != rows {
					t.Fatalf("drained %d rows, want %d", n, rows)
				}
			})
		}
		// The first 40 timestamps have rows on every shard, as the whole
		// store does.
		few := allocs(nil, sos.Key{float64(40)}, 40)
		all := allocs(nil, nil, 10000)
		t.Logf("R=%d: %.0f allocations for 40 rows, %.0f for 10000", repl, few, all)
		if all > few {
			t.Errorf("R=%d: a 10k-row drain allocates %.0f times, a 40-row drain %.0f", repl, all, few)
		}
	}
}

// TestPausedCursorHoldsNoLock: between two chunk pulls the cursor holds no
// shard lock, so an insert completes while it is paused. The consistency
// rule holds for what the insert wrote: a key behind the cursor's position
// stays invisible, one past it appears.
func TestPausedCursorHoldsNoLock(t *testing.T) {
	c, cl := newDarshanCluster(t, 1)
	const n = 3 * queryChunk
	for i := 0; i < n; i++ {
		if err := cl.Insert(DarshanSchemaName, sampleObject(5, int64(i%8), float64(i), "write")); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := cl.Cursor(context.Background(), "job_rank_time", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queryChunk+10; i++ { // into the second chunk
		if !cur.Next() {
			t.Fatal("cursor ended early")
		}
	}
	d := c.Daemons()[0]
	inserted := make(chan error, 1)
	go func() {
		if err := d.Insert(DarshanSchemaName, sampleObject(4, 0, 0, "behind")); err != nil {
			inserted <- err
			return
		}
		inserted <- d.Insert(DarshanSchemaName, sampleObject(6, 0, 0, "ahead"))
	}()
	select {
	case err := <-inserted:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("insert blocked behind a paused cursor: it holds the shard lock")
	}
	rest := drain(cur)
	if got := queryChunk + 10 + len(rest); got != n+1 {
		t.Fatalf("cursor returned %d rows, want the %d stored before it opened plus the one inserted ahead of it", got, n)
	}
	if op := rest[len(rest)-1].Str(jsonmsg.ColOp); op != "ahead" {
		t.Fatalf("last row is %q, want the row inserted ahead of the cursor", op)
	}
}

// TestPausedCursorRowsSurviveGrowth: rows a cursor handed out are views
// of the shard's pages and dictionary, read after the shard lock is
// released. Between chunks, and while they are read, a writer adds pages
// and dictionary strings; every row read must still equal the reference
// taken before the writer ran. Run under -race, it checks that the views
// share no word with what the writer changes.
//
// While the cursor is paused, 10k more rows land in the middle of the
// range's own (job, rank) regions, some next to each shard's resume key,
// so inserts shift the tree bytes that key was copied from. The cursor
// must then return the reference merge of the rows stored before it
// opened and of exactly those new rows that sort past their shard's
// resume key.
func TestPausedCursorRowsSurviveGrowth(t *testing.T) {
	_, cl := newDarshanCluster(t, 2)
	const n = 4 * queryChunk
	for i := 0; i < n; i++ {
		o := sampleObject(5, int64(i%8), float64(i), fmt.Sprintf("op%d", i%5))
		if err := cl.Insert(DarshanSchemaName, o); err != nil {
			t.Fatal(err)
		}
	}
	from, to := sos.Key{int64(5)}, sos.Key{int64(6)}
	want, _, err := referenceQueryEx(cl, "job_rank_time", from, to)
	if err != nil {
		t.Fatal(err)
	}
	// write adds rows outside the range, each with a new string, enough
	// for several pages per shard.
	written := 0
	write := func(rows int) error {
		for i := 0; i < rows; i++ {
			written++
			job := int64(1 + 8*(written%2)) // behind and past the range
			if err := cl.Insert(DarshanSchemaName, sampleObject(job, 0, float64(written), fmt.Sprintf("new%d", written))); err != nil {
				return err
			}
		}
		return nil
	}
	cur, err := cl.Cursor(context.Background(), "job_rank_time", from, to, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []sos.Object
	for len(got) < queryChunk+10 && cur.Next() { // a chunk per shard taken
		got = append(got, cur.Object())
	}
	if err := write(1200); err != nil { // while paused
		t.Fatal(err)
	}
	keyOf := func(o sos.Object) sos.Key {
		return sos.Key{o.Int(jsonmsg.ColJobID), o.Int(jsonmsg.ColRank), o.Float(jsonmsg.ColSegTimestamp)}
	}
	resume := map[string]sos.Key{} // by the op of the rows written to a member
	for m := range cur.scans {
		s := &cur.scans[m]
		if !s.more || len(s.rows) == 0 {
			t.Fatalf("member %d is not paused between chunks", m)
		}
		resume[fmt.Sprintf("mid%d", m)] = keyOf(s.rows[len(s.rows)-1].obj)
	}
	const mid = 10000
	r := rng.New(11)
	for i := 0; i < mid; i++ {
		m := i % len(cur.scans)
		op := fmt.Sprintf("mid%d", m)
		rank, ts := int64(r.Intn(8)), float64(r.Intn(n))+0.5
		if i%10 < 2 { // at, just behind or just past the resume key
			rank, ts = resume[op][1].(int64), resume[op][2].(float64)+float64(r.Intn(3)-1)/2
		}
		if err := cur.scans[m].d.Insert(DarshanSchemaName, sampleObject(5, rank, ts, op)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- write(1200) }() // while the rest is read
	for cur.Next() {
		o := cur.Object()
		_ = o.Values() // read it while the writer runs
		got = append(got, o)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var old []sos.Object
	for _, o := range got {
		if _, ok := resume[o.Str(jsonmsg.ColOp)]; !ok {
			old = append(old, o)
		}
	}
	if !reflect.DeepEqual(rowValues(old), rowValues(want)) {
		t.Fatalf("the cursor returned %d rows stored before it opened that differ from the reference's %d", len(old), len(want))
	}
	all, _, err := referenceQueryEx(cl, "job_rank_time", from, to)
	if err != nil {
		t.Fatal(err)
	}
	var wantAll []sos.Object
	for _, o := range all {
		if k, ok := resume[o.Str(jsonmsg.ColOp)]; ok && compareKeys(keyOf(o), k) < 0 {
			continue // behind its member's resume key when it was written
		}
		wantAll = append(wantAll, o)
	}
	if len(wantAll) == len(want) || len(wantAll) == len(want)+mid {
		t.Fatalf("%d of %d new rows sort past the resume keys; the test needs rows on both sides", len(wantAll)-len(want), mid)
	}
	if !reflect.DeepEqual(rowValues(got), rowValues(wantAll)) {
		t.Fatalf("the cursor returned %d rows that differ from the reference merge's %d", len(got), len(wantAll))
	}
	if stored := cl.Count(DarshanSchemaName); stored != n+written+mid {
		t.Fatalf("%d rows stored, want %d", stored, n+written+mid)
	}
}

// TestCursorCancel: a done context stops the cursor, Err says why, and no
// goroutine is left behind (the cursor never starts one).
func TestCursorCancel(t *testing.T) {
	_, cl := newDarshanCluster(t, 4)
	fillSeeded(t, cl, 3000, 10)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := cl.Cursor(ctx, "time_job_rank", nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if !cur.Next() {
			t.Fatal("cursor ended early")
		}
	}
	cancel()
	if cur.Next() {
		t.Fatal("cursor kept merging after its context was cancelled")
	}
	if !errors.Is(cur.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", cur.Err())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before the cursor, %d after it stopped", before, after)
	}
}

// TestMemberFailsBetweenChunks: a member that crashes, or crashes and
// restarts onto a rebuilt container, while a cursor is paused fails that
// member: the report names it when the merge next needs its rows, and the
// rest of the range still merges. A restart is caught by the container
// generation, not by seeking into the rebuilt tree, whose object ids
// differ.
func TestMemberFailsBetweenChunks(t *testing.T) {
	for _, restart := range []bool{false, true} {
		c, cl := newDarshanCluster(t, 2)
		c.EnableWAL(nil)
		const n = 2000
		fillSeeded(t, cl, n, 11)
		cur, err := cl.Cursor(context.Background(), "job_rank_time", nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			cur.Next()
		}
		if info := cur.Info(); info.Partial || len(info.Failed) != 0 {
			t.Fatalf("report before the crash: %+v", info)
		}
		victim := c.Daemons()[1]
		victim.Crash()
		if restart {
			if err := victim.Restart(); err != nil {
				t.Fatal(err)
			}
			if victim.Count(DarshanSchemaName) != n/2 {
				t.Fatal("the restarted member did not recover its shard")
			}
		}
		rows := 10 + len(drain(cur))
		info := cur.Info()
		if !reflect.DeepEqual(info.Failed, []string{"dsosd1"}) || !reflect.DeepEqual(info.LostGroups, [][]string{{"dsosd1"}}) || !info.Partial {
			t.Fatalf("restart=%v: report %+v, want dsosd1 failed and its group lost", restart, info)
		}
		if rows <= n/2 || rows >= n {
			t.Fatalf("restart=%v: %d rows, want all of dsosd0's and part of dsosd1's", restart, rows)
		}
	}
}

// TestCursorRacesInsertsAndPlacementSwap drains cursors while writers
// insert and the placement is swapped under them (run under -race). Every
// drain is in index order, and sees at least what was stored before it
// opened.
func TestCursorRacesInsertsAndPlacementSwap(t *testing.T) {
	c, cl := newDarshanCluster(t, 4)
	c.SetReplication(2)
	fillSeeded(t, cl, 1500, 12)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := cl.Insert(DarshanSchemaName, sampleObject(2, int64(i%32), float64(i%40), "write")); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.SetReplication(1 + i%2)
			time.Sleep(time.Millisecond)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 20; i++ {
				cur, err := cl.Cursor(context.Background(), "job_time_rank", sos.Key{int64(1)}, sos.Key{int64(4)}, 0)
				if err != nil {
					t.Error(err)
					return
				}
				var prev sos.Key
				rows := 0
				for cur.Next() {
					o := cur.Object()
					key := sos.Key{o.Int(jsonmsg.ColJobID), o.Float(jsonmsg.ColSegTimestamp), o.Int(jsonmsg.ColRank)}
					if prev != nil && compareKeys(prev, key) > 0 {
						t.Errorf("row %d out of order: %v after %v", rows, key, prev)
						return
					}
					prev = key
					rows++
				}
				if rows < 1500 {
					t.Errorf("drain saw %d rows, fewer than the 1500 stored before it", rows)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	wg.Wait()
}
