package topo

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

func darshanDaemon(t *testing.T, name string) *dsos.Daemon {
	t.Helper()
	d, err := dsos.NewDarshanShard(name, "darshan_data", sos.NewMemWAL())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// hashFixture is a HashCluster with the cluster's one client, which is
// what inserts and queries go through.
type hashFixture struct {
	*HashCluster
	cl *dsos.Client
}

// newHashCluster builds an n-shard cluster (dsosd0..dsosd(n-1), WALs on)
// under hash placement.
func newHashCluster(t *testing.T, n int) hashFixture { return newHashClusterR(t, n, 1) }

func newHashClusterR(t *testing.T, n, repl int) hashFixture {
	t.Helper()
	c := dsos.NewCluster(n, "darshan_data")
	c.EnableWAL(nil)
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	h, err := NewHashCluster(HashConfig{
		Seed:        7,
		Replication: repl,
		Factory: func(name string) (*dsos.Daemon, error) {
			return darshanDaemon(t, name), nil
		},
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	return hashFixture{h, dsos.Connect(c)}
}

func hashObj(job, rank int64, ts float64) sos.Object {
	m := jsonmsg.Message{
		UID: 99066, Exe: "/bin/app", JobID: job, Rank: int(rank),
		ProducerName: fmt.Sprintf("nid%05d", rank), File: "/scratch/f", RecordID: 7,
		Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
		MaxByte: -1, Cnt: 1,
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: 0, Len: 4096, Dur: 0.01, Timestamp: ts,
		}},
	}
	return dsos.ObjectsFromMessage(&m)[0]
}

func fillHash(t *testing.T, h hashFixture, n int, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	for i := 0; i < n; i++ {
		o := hashObj(int64(1+r.Intn(3)), int64(r.Intn(32)), float64(i))
		if err := h.cl.Insert(dsos.DarshanSchemaName, o); err != nil {
			t.Fatal(err)
		}
	}
}

func auditClean(t *testing.T, h hashFixture) {
	t.Helper()
	v, err := h.AuditPlacement()
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 0 {
		t.Fatalf("placement violations: %v", v)
	}
}

func queryAll(t *testing.T, h hashFixture) []sos.Object {
	t.Helper()
	objs, info, err := h.cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Partial {
		t.Fatalf("unexpected partial query: %+v", info)
	}
	return objs
}

func TestHashInsertQueryAudit(t *testing.T) {
	h := newHashCluster(t, 4)
	fillHash(t, h, 400, 1)
	if got := len(queryAll(t, h)); got != 400 {
		t.Fatalf("query returned %d of 400", got)
	}
	auditClean(t, h)
	// Placement by hash, not round-robin: shards are uneven but all used.
	for _, name := range h.Members() {
		if h.Daemon(name).Count(dsos.DarshanSchemaName) == 0 {
			t.Fatalf("shard %s is empty", name)
		}
	}
}

func TestHashInsertRefusedWhenOwnerDown(t *testing.T) {
	h := newHashCluster(t, 2)
	fillHash(t, h, 50, 2)
	h.Daemon("dsosd0").Crash()
	var refused bool
	r := rng.New(3)
	for i := 0; i < 50; i++ {
		o := hashObj(int64(1+r.Intn(3)), int64(r.Intn(32)), float64(1000+i))
		if err := h.cl.Insert(dsos.DarshanSchemaName, o); err != nil {
			refused = true
			break
		}
	}
	if !refused {
		t.Fatal("no insert refused with half the shards down")
	}
	// A batch with any owner down is refused whole, before anything is
	// written: the live shard gains no partial copies for a redelivery to
	// duplicate, and no origin ids are consumed.
	var batch []sos.Object
	for i := 0; i < 50; i++ {
		batch = append(batch, hashObj(int64(1+r.Intn(3)), int64(r.Intn(32)), float64(2000+i)))
	}
	live := h.Daemon("dsosd1")
	before := live.Count(dsos.DarshanSchemaName)
	if err := h.cl.InsertBatch(dsos.DarshanSchemaName, batch); err == nil {
		t.Fatal("batch with owners on the down shard accepted")
	}
	if got := live.Count(dsos.DarshanSchemaName); got != before {
		t.Fatalf("refused batch left %d partial copies on the live shard", got-before)
	}
	if err := h.Daemon("dsosd0").Restart(); err != nil {
		t.Fatal(err)
	}
	auditClean(t, h)
}

// TestGrowCutoverMovesKeysOnce: a grow hands each moving object to the new
// shard once, and after its cutover (the ring swap) every object is read
// once, from exactly its owner.
func TestGrowCutoverMovesKeysOnce(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 300, 4)
	if err := h.Grow("d3"); err != nil {
		t.Fatal(err)
	}
	if err := h.Grow("d3"); err == nil {
		t.Fatal("growing by a present member accepted")
	}
	fillHash(t, h, 100, 5)
	if got := len(queryAll(t, h)); got != 400 {
		t.Fatalf("post-grow query returned %d of 400", got)
	}
	auditClean(t, h)
	st := h.Stats()
	if st.Migrations != 1 || st.Moved == 0 {
		t.Fatalf("stats = %+v (expected one migration moving objects)", st)
	}
	if held := h.Daemon("d3").Count(dsos.DarshanSchemaName); held == 0 || uint64(held) < st.Moved {
		t.Fatalf("new shard holds %d objects after %d were moved to it", held, st.Moved)
	}
}

// TestShrinkCutoverDrainsLeaver: a shrink hands everything the leaver
// held to the other members before its cutover, and the leaver is gone.
func TestShrinkCutoverDrainsLeaver(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 300, 6)
	held := h.Daemon("dsosd2").Count(dsos.DarshanSchemaName)
	if err := h.Shrink("dsosd2"); err != nil {
		t.Fatal(err)
	}
	fillHash(t, h, 100, 7)
	if got := len(queryAll(t, h)); got != 400 {
		t.Fatalf("post-shrink query returned %d of 400", got)
	}
	if len(h.Members()) != 2 || h.Daemon("dsosd2") != nil {
		t.Fatalf("leaver still present: %v", h.Members())
	}
	if moved := h.Stats().Moved; moved != uint64(held) {
		t.Fatalf("moved %d objects, the leaver held %d", moved, held)
	}
	auditClean(t, h)
}

func TestShrinkRejectsDownOrLastMember(t *testing.T) {
	h := newHashCluster(t, 2)
	h.Daemon("dsosd1").Crash()
	if err := h.Shrink("dsosd1"); err == nil {
		t.Fatal("removing a down shard accepted (nothing to drain it from)")
	}
	if err := h.Daemon("dsosd1").Restart(); err != nil {
		t.Fatal(err)
	}
	if err := h.Shrink("dsosd1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Shrink("dsosd0"); err == nil {
		t.Fatal("removing the last member accepted")
	}
}

// TestCutoverRetriesAfterDownMember: a move that cannot reach a drain
// source or a handoff destination fails before its cutover (the ring
// swap), with the ring unchanged and every object readable once; the
// retry moves each object once.
func TestCutoverRetriesAfterDownMember(t *testing.T) {
	for _, down := range []string{"dsosd1", "d2"} { // a source, then the destination
		h := newHashCluster(t, 2)
		fillHash(t, h, 100, 12)
		factory := h.cfg.Factory
		h.cfg.Factory = func(name string) (*dsos.Daemon, error) {
			d, err := factory(name)
			if err == nil && name == down {
				d.Crash()
			}
			return d, err
		}
		if down != "d2" {
			h.Daemon(down).Crash()
		}
		if err := h.Grow("d2"); err == nil {
			t.Fatalf("grow succeeded with %s down", down)
		}
		if got := h.Members(); len(got) != 2 || h.Stats().Migrations != 0 {
			t.Fatalf("%s down: failed grow changed the ring: %v, %+v", down, got, h.Stats())
		}
		if down != "d2" {
			if err := h.Daemon(down).Restart(); err != nil {
				t.Fatal(err)
			}
		}
		h.cfg.Factory = factory
		if got := len(queryAll(t, h)); got != 100 {
			t.Fatalf("%s down: %d of 100 readable after the failed grow", down, got)
		}
		auditClean(t, h)
		if err := h.Grow("d2"); err != nil {
			t.Fatal(err)
		}
		if got := len(queryAll(t, h)); got != 100 {
			t.Fatalf("%s down: query returned %d of 100", down, got)
		}
		auditClean(t, h)
		if moved, held := h.Stats().Moved, h.Daemon("d2").Count(dsos.DarshanSchemaName); moved != uint64(held) {
			t.Fatalf("%s down: moved %d objects but the new shard holds %d", down, moved, held)
		}
	}
}

// failingWAL is a shard log whose writes fail while fail is set.
type failingWAL struct {
	*sos.MemWAL
	fail atomic.Bool
}

func (w *failingWAL) Write(p []byte) (int, error) {
	if w.fail.Load() {
		return 0, errors.New("disk full")
	}
	return w.MemWAL.Write(p)
}

// TestFailedHandoffDropsItsCopies: a shrink whose handoff lands on one
// destination and fails on the next leaves the ring as it was, and every
// member retains by it again — the copies already handed off are dropped,
// so the audit stays clean and each object is read once.
func TestFailedHandoffDropsItsCopies(t *testing.T) {
	wal1 := &failingWAL{MemWAL: sos.NewMemWAL()}
	c := dsos.NewCluster(3, "darshan_data")
	c.EnableWAL(func(name string) sos.WALStore {
		if name == "dsosd1" {
			return wal1
		}
		return sos.NewMemWAL()
	})
	if err := dsos.SetupDarshan(c); err != nil {
		t.Fatal(err)
	}
	hc, err := NewHashCluster(HashConfig{Seed: 7}, c)
	if err != nil {
		t.Fatal(err)
	}
	h := hashFixture{hc, dsos.Connect(c)}
	fillHash(t, h, 300, 17)
	before := h.Daemon("dsosd0").Count(dsos.DarshanSchemaName)
	wal1.fail.Store(true)
	if err := h.Shrink("dsosd2"); err == nil {
		t.Fatal("shrink succeeded with a destination's log failing")
	}
	if got := h.Daemon("dsosd0").Count(dsos.DarshanSchemaName); got != before {
		t.Fatalf("dsosd0 holds %d objects after the failed shrink, %d before", got, before)
	}
	if len(h.Members()) != 3 || h.Stats().Migrations != 0 {
		t.Fatalf("failed shrink changed the ring: %v", h.Members())
	}
	if got := len(queryAll(t, h)); got != 300 {
		t.Fatalf("%d of 300 readable after the failed shrink", got)
	}
	auditClean(t, h)
	wal1.fail.Store(false)
	if err := h.Shrink("dsosd2"); err != nil {
		t.Fatal(err)
	}
	if got := len(queryAll(t, h)); got != 300 {
		t.Fatalf("query returned %d of 300 after the retried shrink", got)
	}
	auditClean(t, h)
}

func TestQueryReportsLostGroups(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 100, 13)
	h.Daemon("dsosd1").Crash()
	_, info, err := h.cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Partial {
		t.Fatal("R=1 with a shard down must be partial")
	}
	if len(info.LostGroups) != 1 || info.LostGroups[0][0] != "dsosd1" {
		t.Fatalf("lost groups = %v", info.LostGroups)
	}
}

func TestPlacementDeterministicAcrossClusters(t *testing.T) {
	// Two clusters built independently with the same seed and members
	// place every object identically — the restart-survival property.
	a := newHashCluster(t, 3)
	b := newHashCluster(t, 3)
	fillHash(t, a, 200, 14)
	fillHash(t, b, 200, 14)
	for _, name := range a.Members() {
		ca, cb := a.Daemon(name).Count(dsos.DarshanSchemaName), b.Daemon(name).Count(dsos.DarshanSchemaName)
		if ca != cb {
			t.Fatalf("shard %s: %d vs %d objects", name, ca, cb)
		}
	}
}

func TestDarshanKeyStableAndFallback(t *testing.T) {
	o := hashObj(3, 7, 1.5)
	k := DarshanKey(dsos.DarshanSchemaName, o)
	if !strings.Contains(k, "/3/7") {
		t.Fatalf("key %q does not encode job/rank", k)
	}
	if k != DarshanKey(dsos.DarshanSchemaName, hashObj(3, 7, 99.0)) {
		t.Fatal("same (producer,job,rank) produced different keys")
	}
	if DarshanKey("other", sos.NewObject(int64(1))) == "" {
		t.Fatal("fallback key empty")
	}
}

func TestHashClusterConfigErrors(t *testing.T) {
	h := newHashCluster(t, 1)
	if err := h.Grow("dsosd0"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if err := h.Shrink("ghost"); err == nil {
		t.Fatal("removing an absent member accepted")
	}
	h.cfg.Factory = nil
	if err := h.Grow("d1"); err == nil {
		t.Fatal("grow without a shard factory accepted")
	}
	if st := h.Stats(); st.Members != 1 || st.Migrations != 0 {
		t.Fatalf("refused moves changed the cluster: %+v", st)
	}
}

// TestRingRules pins the ring strategy's rules at R=2: every object is
// stamped with an origin and stored on exactly its two owners; one owner
// down refuses the insert instead of acking a thinner replica set; and a
// query that sees an origin on one owner only does not read-repair it
// onto a non-owner.
func TestRingRules(t *testing.T) {
	h := newHashClusterR(t, 3, 2)
	fillHash(t, h, 150, 15)
	total := 0
	for _, name := range h.Members() {
		total += h.Daemon(name).Count(dsos.DarshanSchemaName)
		err := h.Daemon(name).IterOrigins("job_rank_time", nil, func(_ sos.Object, origin uint64) bool {
			if origin == 0 {
				t.Errorf("%s holds an unstamped object", name)
			}
			return origin != 0
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 300 {
		t.Fatalf("%d copies of 150 objects at R=2", total)
	}
	auditClean(t, h)

	h.Daemon("dsosd1").Crash()
	// Keys with both owners live are still accepted; one owned by the
	// down shard must be refused.
	refused := false
	for rank := int64(0); rank < 32 && !refused; rank++ {
		refused = h.cl.Insert(dsos.DarshanSchemaName, hashObj(2, rank, 9999)) != nil
	}
	if !refused {
		t.Fatal("no insert refused with an owner down")
	}
	live := h.Daemon("dsosd0").Count(dsos.DarshanSchemaName) + h.Daemon("dsosd2").Count(dsos.DarshanSchemaName)
	objs, info, err := h.cl.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Partial || info.Repaired != 0 || len(info.Failed) != 1 {
		t.Fatalf("info = %+v, want one failed daemon, not partial, nothing repaired", info)
	}
	if len(objs) < 150 {
		t.Fatalf("query returned %d of at least 150 with one owner of each group live", len(objs))
	}
	if got := h.Daemon("dsosd0").Count(dsos.DarshanSchemaName) + h.Daemon("dsosd2").Count(dsos.DarshanSchemaName); got != live {
		t.Fatalf("query wrote %d copies onto live shards", got-live)
	}
	if err := h.Daemon("dsosd1").Restart(); err != nil {
		t.Fatal(err)
	}
	auditClean(t, h)
}

// TestStorePluginSameInBothModes pins the one behaviour the two deleted
// store plugins disagreed on: a payload event.Fields rejects is a Store
// error (the hash-mode plugin used to ack and skip it), under either
// placement.
func TestStorePluginSameInBothModes(t *testing.T) {
	rr := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(rr); err != nil {
		t.Fatal(err)
	}
	for name, cl := range map[string]*dsos.Client{
		"round-robin": dsos.Connect(rr),
		"hash":        newHashCluster(t, 2).cl,
	} {
		store := ldms.NewDSOSStore(cl)
		if err := store.Store(streams.Message{Tag: "darshanConnector", Data: []byte("not a connector payload")}); err == nil {
			t.Errorf("%s: a payload that is not a connector message was acked", name)
		}
		m := jsonmsg.Message{
			Module: "POSIX", Op: "write", Type: jsonmsg.TypeMOD, Exe: jsonmsg.NA, File: jsonmsg.NA,
			ProducerName: "nid00001", JobID: 1,
			Seg: []jsonmsg.Segment{{DataSet: jsonmsg.NA, Len: 10, Timestamp: 1}},
		}
		if err := store.Store(streams.Message{Tag: "darshanConnector", Record: event.NewRecord(&m, nil)}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := cl.Count(dsos.DarshanSchemaName); got != 1 {
			t.Errorf("%s: %d objects stored, want 1", name, got)
		}
	}
}

// TestTelemetryFollowsLiveMembership pins that the cluster's per-shard
// series and its health probe walk the placement's members, not the
// launch-time set: a grown shard appears with its grow, a removed one is
// gone after its shrink, and a dark owner group fails the one probe.
func TestTelemetryFollowsLiveMembership(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 100, 16)
	reg := obs.NewRegistry()
	h.cl.Cluster().Instrument(reg, nil)
	health := h.cl.Cluster().ClusterHealth()
	has := func(name string) bool {
		for _, s := range reg.Snapshot() {
			if s.Name == name {
				return true
			}
		}
		return false
	}
	const grown, removed = `dlc_dsos_shard_up{shard="d3"}`, `dlc_dsos_shard_up{shard="dsosd2"}`
	if has(grown) || !has(removed) {
		t.Fatal("launch-time series wrong")
	}
	if err := h.Grow("d3"); err != nil {
		t.Fatal(err)
	}
	if !has(grown) {
		t.Fatalf("no %s series after the grow", grown)
	}
	if err := h.Shrink("dsosd2"); err != nil {
		t.Fatal(err)
	}
	if has(removed) || !has(grown) {
		t.Fatalf("after the shrink: %s present=%v, %s present=%v", removed, has(removed), grown, has(grown))
	}
	if err := health(); err != nil {
		t.Fatalf("health with every shard up: %v", err)
	}
	h.Daemon("d3").Crash()
	var pe *dsos.PartialError
	if err := health(); !errors.As(err, &pe) || len(pe.Groups) != 1 || pe.Groups[0][0] != "d3" {
		t.Fatalf("health with the grown shard down = %v, want its owner group named", err)
	}
}

// TestPlacementSwapUnderLoad races inserts and queries on the one client
// against the placement swaps of a grow, a shrink and a second grow:
// under -race nothing may trip, every acked object must stay readable
// exactly once, and the fan-out must follow the membership.
func TestPlacementSwapUnderLoad(t *testing.T) {
	h := newHashCluster(t, 3)
	var wg sync.WaitGroup
	var acked atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				o := hashObj(int64(1+w), int64(i%32), float64(w*1_000_000+i))
				if h.cl.Insert(dsos.DarshanSchemaName, o) == nil {
					acked.Add(1)
				}
				if i%16 == 0 {
					if _, _, err := h.cl.QueryEx("job_rank_time", sos.Key{int64(1 + w)}, sos.Key{int64(2 + w)}); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	steps := []func() error{
		func() error { return h.Grow("d3") },
		func() error { return h.Shrink("dsosd0") },
		func() error { return h.Grow("d4") },
	}
	for _, step := range steps {
		time.Sleep(5 * time.Millisecond)
		if err := step(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if got := len(queryAll(t, h)); int64(got) != acked.Load() {
		t.Fatalf("query returned %d objects, %d were acked", got, acked.Load())
	}
	if len(h.cl.Cluster().Daemons()) != 4 {
		t.Fatalf("fan-out set %d members after grow, shrink and grow, want 4", len(h.cl.Cluster().Daemons()))
	}
	auditClean(t, h)
}

// BenchmarkGrowBarrier times one Grow of a 4-shard cluster holding 320k
// rows (4 jobs × 1024 ranks, logs on): the whole move, which is how long
// inserts wait at the barrier. Each iteration shrinks the grown shard
// away again off the clock.
func BenchmarkGrowBarrier(b *testing.B) {
	c := dsos.NewCluster(4, "darshan_data")
	c.EnableWAL(nil)
	if err := dsos.SetupDarshan(c); err != nil {
		b.Fatal(err)
	}
	h, err := NewHashCluster(HashConfig{Seed: 7, Factory: func(name string) (*dsos.Daemon, error) {
		return dsos.NewDarshanShard(name, "darshan_data", sos.NewMemWAL())
	}}, c)
	if err != nil {
		b.Fatal(err)
	}
	cl := dsos.Connect(c)
	const rows, per = 320_000, 64
	batch := make([]sos.Object, 0, per)
	for i := 0; i < rows; i++ {
		batch = append(batch, hashObj(int64(1+i%4), int64(i/4%1024), float64(i)))
		if len(batch) == per {
			if err := cl.InsertBatch(dsos.DarshanSchemaName, batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.Grow("dsosd4"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := h.Shrink("dsosd4"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(h.Stats().Moved)/float64(2*b.N), "moved/grow")
}
