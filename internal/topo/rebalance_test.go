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
	d := dsos.NewDaemon(name, "darshan_data")
	d.EnableWAL(sos.NewMemWAL())
	if err := d.AddSchema(dsos.DarshanSchema()); err != nil {
		t.Fatal(err)
	}
	for _, spec := range dsos.DarshanIndices() {
		if err := d.AddIndex(spec); err != nil {
			t.Fatal(err)
		}
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

func TestGrowCutoverMovesKeysOnce(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 300, 4)
	before := queryAll(t, h)

	if err := h.BeginAdd("d3"); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginAdd("d4"); err == nil {
		t.Fatal("second concurrent rebalance accepted")
	}
	// Mid-migration inserts dual-write behind the fence.
	fillHash(t, h, 100, 5)
	mid := queryAll(t, h)
	if len(mid) != 400 {
		t.Fatalf("mid-migration query returned %d of 400 (fence dup leaked?)", len(mid))
	}
	if err := h.Cutover(); err != nil {
		t.Fatal(err)
	}
	after := queryAll(t, h)
	if len(after) != 400 {
		t.Fatalf("post-cutover query returned %d of 400", len(after))
	}
	auditClean(t, h)
	st := h.Stats()
	if st.Migrations != 1 || st.Moved == 0 {
		t.Fatalf("stats = %+v (expected one migration moving objects)", st)
	}
	if h.Daemon("d3").Count(dsos.DarshanSchemaName) == 0 {
		t.Fatal("new shard owns nothing after cutover")
	}
	_ = before
}

func TestShrinkCutoverDrainsLeaver(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 300, 6)
	if err := h.BeginRemove("dsosd2"); err != nil {
		t.Fatal(err)
	}
	fillHash(t, h, 100, 7) // fenced to the new owners
	if err := h.Cutover(); err != nil {
		t.Fatal(err)
	}
	if got := len(queryAll(t, h)); got != 400 {
		t.Fatalf("post-shrink query returned %d of 400", got)
	}
	if len(h.Members()) != 2 || h.Daemon("dsosd2") != nil {
		t.Fatalf("leaver still present: %v", h.Members())
	}
	auditClean(t, h)
}

func TestShrinkRejectsDownOrLastMember(t *testing.T) {
	h := newHashCluster(t, 2)
	h.Daemon("dsosd1").Crash()
	if err := h.BeginRemove("dsosd1"); err == nil {
		t.Fatal("removing a down shard accepted (nothing to drain it from)")
	}
	if err := h.Daemon("dsosd1").Restart(); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginRemove("dsosd1"); err != nil {
		t.Fatal(err)
	}
	if err := h.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginRemove("dsosd0"); err == nil {
		t.Fatal("removing the last member accepted")
	}
}

func TestAbortUnwindsFence(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 200, 8)
	if err := h.BeginAdd("d3"); err != nil {
		t.Fatal(err)
	}
	fillHash(t, h, 100, 9) // some land on d3 via the fence
	if err := h.Abort(); err != nil {
		t.Fatal(err)
	}
	if h.Daemon("d3") != nil {
		t.Fatal("aborted grow left the staged shard in the cluster")
	}
	if got := len(queryAll(t, h)); got != 300 {
		t.Fatalf("post-abort query returned %d of 300", got)
	}
	auditClean(t, h)
	if h.Stats().Aborts != 1 {
		t.Fatalf("stats = %+v", h.Stats())
	}
}

func TestAbortShrinkSettlesDebtAfterRestart(t *testing.T) {
	h := newHashCluster(t, 3)
	fillHash(t, h, 200, 10)
	if err := h.BeginRemove("dsosd2"); err != nil {
		t.Fatal(err)
	}
	fillHash(t, h, 100, 11) // fenced copies land on d0/d1
	// A fence destination dies before the abort: its stray copies become
	// debt, settled only after it restarts.
	h.Daemon("dsosd0").Crash()
	if err := h.Abort(); err != nil {
		t.Fatal(err)
	}
	if err := h.Daemon("dsosd0").Restart(); err != nil {
		t.Fatal(err)
	}
	if err := h.Settle(); err != nil {
		t.Fatal(err)
	}
	if h.Stats().Debt != 0 {
		t.Fatalf("debt %d after settle", h.Stats().Debt)
	}
	if got := len(queryAll(t, h)); got != 300 {
		t.Fatalf("post-abort query returned %d of 300", got)
	}
	auditClean(t, h)
}

// TestCutoverRetriesAfterDownMember: a cutover that cannot reach a drain
// source or a handoff destination fails with the migration still staged
// and every object still readable; the retry moves each object once.
func TestCutoverRetriesAfterDownMember(t *testing.T) {
	for _, down := range []string{"dsosd1", "d2"} { // a source, then the destination
		h := newHashCluster(t, 2)
		fillHash(t, h, 100, 12)
		if err := h.BeginAdd("d2"); err != nil {
			t.Fatal(err)
		}
		h.Daemon(down).Crash()
		if err := h.Cutover(); err == nil {
			t.Fatalf("cutover succeeded with %s down", down)
		}
		if !h.Migrating() {
			t.Fatalf("failed cutover (%s down) dropped the staged migration", down)
		}
		if err := h.Daemon(down).Restart(); err != nil {
			t.Fatal(err)
		}
		if got := len(queryAll(t, h)); got != 100 {
			t.Fatalf("%s down: %d of 100 readable after the failed cutover", down, got)
		}
		if err := h.Cutover(); err != nil {
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
	if DarshanKey("other", sos.Object{int64(1)}) == "" {
		t.Fatal("fallback key empty")
	}
}

func TestHashClusterConfigErrors(t *testing.T) {
	h := newHashCluster(t, 1)
	if err := h.BeginAdd("dsosd0"); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if err := h.BeginRemove("ghost"); err == nil {
		t.Fatal("removing an absent member accepted")
	}
	if err := h.Cutover(); err == nil {
		t.Fatal("cutover without a migration accepted")
	}
	if err := h.Abort(); err == nil {
		t.Fatal("abort without a migration accepted")
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
// launch-time set: a grown shard appears with BeginAdd, a removed one is
// gone after its cutover, and a dark owner group fails the one probe.
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
	if err := h.BeginAdd("d3"); err != nil {
		t.Fatal(err)
	}
	if !has(grown) {
		t.Fatalf("no %s series after the grow", grown)
	}
	if err := h.Cutover(); err != nil {
		t.Fatal(err)
	}
	if err := h.BeginRemove("dsosd2"); err != nil {
		t.Fatal(err)
	}
	if err := h.Cutover(); err != nil {
		t.Fatal(err)
	}
	if has(removed) || !has(grown) {
		t.Fatalf("after shrink + cutover: %s present=%v, %s present=%v", removed, has(removed), grown, has(grown))
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
// against the placement swaps of a live grow (begin, abort, begin,
// cutover): under -race nothing may trip, every acked object must stay
// readable exactly once, and the fan-out must follow the new member.
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
		func() error { return h.BeginAdd("d3") },
		h.Abort,
		func() error { return h.BeginAdd("d3") },
		h.Cutover,
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
		t.Fatalf("fan-out set %d members after the grow, want 4", len(h.cl.Cluster().Daemons()))
	}
}
