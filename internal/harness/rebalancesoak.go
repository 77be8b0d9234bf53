package harness

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"darshanldms/internal/event"
	"darshanldms/internal/faults"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"

	"darshanldms/internal/dsos"
)

// The rebalance soak is the control plane's acceptance harness: a
// three-level aggregation tree (leaves -> L1 -> L2 -> store head) built
// from durable streams, feeding a consistent-hash shard cluster, rerun
// under many seeded schedules that crash aggregators, partition uplinks,
// crash shards AND trigger a live grow + shrink rebalance mid-soak. Every
// hop runs the round step the daemons ship (ldms.Cursor): a tree hop
// hands each stored-batch run of a round to its current parent and
// settles the round after the ack gap, as the stream uplink does, and the
// store head commits each round through dedup and the ack ledger into
// the cluster, as dsosd -stream does. After every run four invariants are
// audited:
//
//  1. No acked record lost — every object the store chain acked is in
//     the final merged query.
//  2. No (producer, seq) stored twice — the merged view never exceeds
//     the acked multiset, and no shard holds an origin twice.
//  3. Exactly one owner after the moves — every stored origin lives on
//     exactly its ring owners (topo.HashCluster.AuditPlacement).
//  4. Re-homing never regresses an ack floor — every uplink's durable
//     cursor is monotone across every failover.
//
// The static-placement baseline (Static: true) runs the same tree and
// faults but cannot rebalance: a grow is impossible and a shrink is an
// operator decommission — the shard is killed and never restarted. The
// soak then demonstrates the acked data that placement loses.

// RebalanceSoakConfig parameterizes a rebalance soak.
type RebalanceSoakConfig struct {
	Seed              uint64
	Schedules         int           // randomized fault schedules (default 20)
	EventsPerSchedule int           // random fault draws per schedule (default 5)
	Leaves            int           // leaf daemons (default 8)
	MsgsPerLeaf       int           // records produced per leaf (default 120)
	Horizon           time.Duration // virtual soak length (default 4s)
	Shards            int           // initial dsosd shard count (default 3)
	Static            bool          // static placement baseline (no rebalancing)
}

// DefaultRebalanceSoakConfig is the durable full-size soak: 20 schedules
// against the 3-level tree with a 3-shard (+1 spare) hash cluster.
func DefaultRebalanceSoakConfig(seed uint64) RebalanceSoakConfig {
	return RebalanceSoakConfig{
		Seed: seed, Schedules: 20, EventsPerSchedule: 5,
		Leaves: 8, MsgsPerLeaf: 120, Horizon: 4 * time.Second, Shards: 3,
	}
}

// RebalanceRunResult reports one soak run and its invariant audit.
type RebalanceRunResult struct {
	Schedule   string
	Produced   uint64 // records appended to leaf streams
	Acked      uint64 // identities acked durable by the store chain
	Deduped    uint64 // replayed deliveries absorbed by dedup
	Naks       uint64 // store-head naks: refused rounds, naked whole (down-shard backpressure)
	AckLost    uint64 // deliveries whose ack a crash inside the ack gap lost
	Rehomes    uint64 // tree failovers
	Misses     uint64 // heartbeat misses
	Migrations uint64 // completed grows and shrinks
	Moved      uint64 // objects copied by handoffs
	MidChecks  int    // mid-soak readability probes that ran
	Merged     int    // objects in the final merged query
	Notes      []string
	Violations []string
	Log        []faults.Record
	Obs        []obs.Sample
}

// RebalanceSoakResult is a full soak: the calm run (rebalance, no
// faults) plus one run per schedule.
type RebalanceSoakResult struct {
	Label      string
	Config     RebalanceSoakConfig
	Calm       RebalanceRunResult
	Runs       []RebalanceRunResult
	Violations int
}

// The soak's hop timing, in virtual time: how often a hop polls its
// cursor (a tree hop's poll doubles as its heartbeat), the gap between
// handing a round on and settling it — a crash inside it loses the ack,
// and the round is redelivered: duplicates for dedup, never loss — and
// the consumers' redelivery deadline.
const (
	hopPollEvery = 5 * time.Millisecond
	hopAckGap    = time.Millisecond
	hopAckWait   = 200 * time.Millisecond
)

// treeHop is one tree member's uplink: the shipped round step over the
// member's own durable consumer. The consumer, and so its ack floor,
// belongs to the member and survives any number of re-homes — pointing
// the hop at a new parent never touches the cursor.
type treeHop struct {
	cons        *streams.Consumer
	ackLost     uint64 // deliveries whose ack a crash inside the ack gap lost
	floor       uint64 // ack floor after the last settle
	regressions uint64 // settles that found the floor lower than before
}

// startTreeHop claims the member's uplink consumer and spawns its loop.
// Every poll is a heartbeat through Tree.Deliver, and the hop pauses
// while the member itself is down.
func startTreeHop(e *sim.Engine, t *topo.Tree, name string, s *streams.DurableStream) (*treeHop, error) {
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "uplink", MaxInflight: 2 * ldms.RoundSize, AckWait: hopAckWait})
	if err != nil {
		return nil, err
	}
	h := &treeHop{cons: cons}
	cur := ldms.NewCursor(cons, ldms.RoundSize)
	e.SpawnDaemon("uplink-"+name, func(p *sim.Proc) {
		for {
			p.Sleep(hopPollEvery)
			if !t.Alive(name) {
				continue
			}
			bus, ok := t.Deliver(name)
			if !ok {
				continue // miss counted; the tree decides on failover
			}
			msgs, ends, err := cur.Next()
			if err != nil {
				return // consumer replaced or closed
			}
			if len(msgs) == 0 {
				continue
			}
			lo := 0
			for _, hi := range ends {
				bus.PublishBatch(msgs[lo:hi])
				lo = hi
			}
			p.Sleep(hopAckGap)
			if !t.Alive(name) {
				// Crashed inside the gap: the parent has the round and we
				// cannot ack it; it is redelivered whole.
				h.ackLost += uint64(len(msgs))
				continue
			}
			cur.Settle(len(msgs))
			floor := cons.AckFloor()
			if floor < h.floor {
				h.regressions++
			}
			h.floor = floor
		}
	})
	return h, nil
}

// startStoreHop claims the store head's ingest consumer and spawns the
// commit loop dsosd -stream runs: each round committed through store and
// settled, a refused round naked whole and retried on the next poll. A
// round that failed after a partial write goes to partial — dsosd would
// exit and cut it back on restart, which the soak does not model — and a
// message that does not decode to dead.
func startStoreHop(e *sim.Engine, s *streams.DurableStream, store ldms.RoundStore, dead, partial func(error)) (*streams.Consumer, error) {
	cons, err := s.Consumer(streams.ConsumerConfig{Name: "store", AckWait: hopAckWait})
	if err != nil {
		return nil, err
	}
	cur := ldms.NewStoreCursor(cons)
	e.SpawnDaemon("store-head", func(p *sim.Proc) {
		for {
			p.Sleep(hopPollEvery)
			if _, _, err := cur.Next(); err != nil {
				return
			}
			if err := cur.Commit(store, dead); err != nil && !errors.Is(err, dsos.ErrNothingWritten) {
				partial(err)
			}
		}
	})
	return cons, nil
}

const (
	rebalanceContainer = "rebalance-darshan"
	rebalanceSpare     = "dsosd-spare"
	rebalanceVictim    = "dsosd2"
)

// rebalanceShardFactory builds the shard a grow adds: the darshan schema,
// its indices and a fresh in-memory WAL.
func rebalanceShardFactory(name string) (*dsos.Daemon, error) {
	return dsos.NewDarshanShard(name, rebalanceContainer, sos.NewMemWAL())
}

// rebalanceSchedule draws one seeded fault schedule over the horizon:
// exactly one grow window and one (later, disjoint) shrink window, plus
// n random events — aggregator crashes, uplink partitions and shard
// crashes — all confined to [0.1h, 0.9h] so the quiesce at 1.0h always
// finds the scripted faults over.
func rebalanceSchedule(r *rng.Stream, name string, h time.Duration, aggs, parts, shards []string, n int) faults.Profile {
	p := faults.Profile{Name: name}
	hf := float64(h)
	at := func(lo, hi float64) time.Duration { return time.Duration(r.Uniform(lo, hi) * hf) }
	p.Events = append(p.Events, faults.Event{
		Kind: faults.StoreFault, Target: "grow",
		At: at(0.20, 0.38), Duration: time.Duration(0.08 * hf),
	})
	p.Events = append(p.Events, faults.Event{
		Kind: faults.StoreFault, Target: "shrink",
		At: at(0.55, 0.70), Duration: time.Duration(0.08 * hf),
	})
	for i := 0; i < n; i++ {
		start := at(0.10, 0.75)
		dur := time.Duration(r.Uniform(0.05, 0.12) * hf)
		switch r.Intn(3) {
		case 0:
			p.Events = append(p.Events, faults.Event{
				Kind: faults.DaemonCrash, Target: aggs[r.Intn(len(aggs))], At: start, Duration: dur,
			})
		case 1:
			p.Events = append(p.Events, faults.Event{
				Kind: faults.StoreFault, Target: "part-" + parts[r.Intn(len(parts))], At: start, Duration: dur,
			})
		case 2:
			p.Events = append(p.Events, faults.Event{
				Kind: faults.DaemonCrash, Target: shards[r.Intn(len(shards))], At: start,
				Duration: time.Duration(r.Uniform(0.04, 0.08) * hf),
			})
		}
	}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// soakRecord is leaf li's i-th connector record, a typed POSIX write
// with the (producer, seq) identity (leaf, i+1).
func soakRecord(leaf string, li, i int) streams.Message {
	msg := &jsonmsg.Message{
		UID: 99066, Exe: "/projects/hacc/hacc-io",
		JobID: int64(1 + i/50), Rank: li*1000 + i%8,
		ProducerName: leaf, File: "/scratch/hacc", RecordID: uint64(i),
		Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
		MaxByte: -1, Cnt: 1,
		Seg: []jsonmsg.Segment{{
			DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
			NDims: -1, NPoints: -1, Off: int64(i) * 4096, Len: 4096,
			Dur: 0.01, Timestamp: float64(li*1_000_000 + i),
		}},
	}
	return streams.Message{
		Tag:      "darshanConnector",
		Record:   event.NewRecord(msg, nil),
		Producer: leaf,
		Seq:      uint64(i + 1),
	}
}

// runRebalanceSoak executes one soak run. mkProfile nil = the calm run
// (grow + shrink on fixed times, no faults).
func runRebalanceSoak(cfg RebalanceSoakConfig, name string, mkProfile func(aggs, parts, shards []string) faults.Profile) (*RebalanceRunResult, error) {
	e := sim.NewEngine()
	defer e.Close()
	root := rng.New(cfg.Seed)
	h := cfg.Horizon
	res := &RebalanceRunResult{Schedule: name}
	note := func(format string, args ...any) {
		res.Notes = append(res.Notes, fmt.Sprintf("[%8.3fs] %s", e.Now().Seconds(), fmt.Sprintf(format, args...)))
	}

	// --- Shard plane: a consistent-hash dsos cluster. ---
	sc := dsos.NewCluster(cfg.Shards, rebalanceContainer)
	sc.EnableWAL(nil)
	if err := dsos.SetupDarshan(sc); err != nil {
		return nil, err
	}
	shards := sc.Daemons()
	shardNames := make([]string, len(shards))
	for i, d := range shards {
		shardNames[i] = d.Name
	}
	hc, err := topo.NewHashCluster(topo.HashConfig{
		Seed:    cfg.Seed ^ 0x5eed,
		Factory: rebalanceShardFactory,
	}, sc)
	if err != nil {
		return nil, err
	}
	client := dsos.Connect(sc)

	// --- Aggregation tree: leaves -> L1 (a,b; standby s) -> L2 (c;
	// standby d) -> store head. Every non-root member owns a durable
	// stream teed off its bus and a hop feeding it to the tree's current
	// routing decision. ---
	tree := topo.NewTree(e.Now, topo.DefaultFailAfter)
	streamsByName := map[string]*streams.DurableStream{}
	mkMember := func(name, parent, standby string, role topo.Role) error {
		bus := streams.NewBus()
		if err := tree.Add(topo.Spec{Name: name, Role: role, Parent: parent, Standby: standby, Bus: bus}); err != nil {
			return err
		}
		s, err := streams.OpenStream(streams.StreamConfig{Name: name, Clock: e.Now}, sos.NewMemWAL())
		if err != nil {
			return err
		}
		streamsByName[name] = s
		return bus.BindStream(s)
	}
	for _, a := range [][3]string{
		{"store-head", "", ""},
		{"agg-d", "store-head", ""},
		{"agg-c", "store-head", "agg-d"},
		{"agg-s", "agg-c", "agg-d"},
		{"agg-a", "agg-c", "agg-s"},
		{"agg-b", "agg-c", "agg-s"},
	} {
		role := topo.RoleAgg
		if a[1] == "" {
			role = topo.RoleRoot
		}
		if err := mkMember(a[0], a[1], a[2], role); err != nil {
			return nil, err
		}
	}
	leafNames := make([]string, 0, cfg.Leaves)
	for i := 0; i < cfg.Leaves; i++ {
		ln := fmt.Sprintf("leaf-%02d", i)
		parent, standby := "agg-a", "agg-b"
		if i >= cfg.Leaves/2 {
			parent, standby = "agg-b", "agg-a"
		}
		if err := mkMember(ln, parent, standby, topo.RoleLeaf); err != nil {
			return nil, err
		}
		leafNames = append(leafNames, ln)
	}
	hops := map[string]*treeHop{}
	for _, name := range tree.Members() {
		if name == "store-head" {
			continue
		}
		if hops[name], err = startTreeHop(e, tree, name, streamsByName[name]); err != nil {
			return nil, err
		}
	}

	// --- Store chain on the head: dedup -> ack ledger -> DSOS store. ---
	ack := newAckRecorder(ldms.NewDSOSStore(client))
	dedup := ldms.NewDedupStore(ack)
	storeCons, err := startStoreHop(e, streamsByName["store-head"], dedup,
		func(err error) { note("dead-lettered: %v", err) },
		func(err error) {
			res.Violations = append(res.Violations, fmt.Sprintf("partial-round: %v at %.3fs", err, e.Now().Seconds()))
		})
	if err != nil {
		return nil, err
	}

	// --- Fault wiring. ---
	ctl := faults.NewController(e)
	aggNames := []string{"agg-a", "agg-b", "agg-s", "agg-c", "agg-d"}
	restartAgg := func(an string) {
		tree.Restart(an)
		hops[an].cons.Redeliver()
	}
	for _, an := range aggNames {
		an := an
		ctl.RegisterCrash(an, func() { tree.Crash(an) }, func() { restartAgg(an) })
	}
	partTargets := []string{"agg-a", "agg-b", "leaf-00", leafNames[cfg.Leaves/2]}
	for _, pn := range partTargets {
		pn := pn
		ctl.RegisterToggle("part-"+pn, func(on bool) { tree.SetPartition(pn, on) })
	}
	decomm := map[string]bool{} // baseline decommissioned shards
	for _, d := range shards {
		d := d
		ctl.RegisterCrash(d.Name, d.Crash, func() {
			if decomm[d.Name] {
				return // baseline decommission is permanent
			}
			if err := d.Restart(); err != nil {
				res.Notes = append(res.Notes, fmt.Sprintf("restart %s: %v", d.Name, err))
			}
		})
	}
	// Rebalance windows: the move runs whole when its window opens; one
	// that fails (a shard down) is retried when the window closes and
	// again at quiesce. In the static baseline a grow is impossible and a
	// shrink is a decommission — the victim shard dies with its data
	// still placed on it.
	type move struct {
		what string
		run  func() error
		due  bool
	}
	attempt := func(m *move) {
		if err := m.run(); err != nil {
			note("%s deferred: %v", m.what, err)
			return
		}
		m.due = false
	}
	moves := []*move{
		{what: "grow", run: func() error { return hc.Grow(rebalanceSpare) }},
		{what: "shrink", run: func() error { return hc.Shrink(rebalanceVictim) }},
	}
	window := func(m *move, static func()) func(bool) {
		return func(on bool) {
			switch {
			case cfg.Static:
				if on {
					static()
				}
			case on:
				m.due = true
				attempt(m)
			case m.due:
				attempt(m)
			}
		}
	}
	ctl.RegisterToggle("grow", window(moves[0], func() {
		note("grow: static placement cannot add a shard")
	}))
	ctl.RegisterToggle("shrink", window(moves[1], func() {
		note("shrink: static placement decommissions %s, stranding its keys", rebalanceVictim)
		decomm[rebalanceVictim] = true
		hc.Daemon(rebalanceVictim).Crash()
	}))

	// --- Telemetry. ---
	reg := obs.NewRegistry()
	tree.Collect(reg)
	hc.Collect(reg)
	dedup.Instrument(reg)

	// --- Workload: each leaf appends typed connector records with a
	// unique (producer, seq) identity to its own durable stream. ---
	produceFor := time.Duration(0.7 * float64(h))
	interval := produceFor / time.Duration(cfg.MsgsPerLeaf)
	for li, ln := range leafNames {
		li, ln := li, ln
		jit := root.DeriveN("rebalance-producer", li)
		e.Spawn("produce-"+ln, func(p *sim.Proc) {
			for i := 0; i < cfg.MsgsPerLeaf; i++ {
				p.Sleep(interval + time.Duration(jit.Intn(int(interval/4)+1)))
				if _, err := streamsByName[ln].Append(soakRecord(ln, li, i)); err != nil {
					panic(err)
				}
				res.Produced++
			}
		})
	}

	// --- Fault schedule. ---
	profile := faults.Profile{Name: name}
	if mkProfile != nil {
		profile = mkProfile(aggNames, partTargets, shardNames)
	} else {
		// Calm run: the rebalance happens, nothing else goes wrong.
		profile.Events = []faults.Event{
			{Kind: faults.StoreFault, Target: "grow", At: time.Duration(0.30 * float64(h)), Duration: time.Duration(0.08 * float64(h))},
			{Kind: faults.StoreFault, Target: "shrink", At: time.Duration(0.60 * float64(h)), Duration: time.Duration(0.08 * float64(h))},
		}
	}
	if err := ctl.Apply(profile); err != nil {
		return nil, err
	}
	res.Schedule = profile.Name

	// --- Mid-soak readability probes: while faults and migrations are
	// live, everything already acked must still be readable whenever no
	// placement group is dark. Snapshot and query run in one engine
	// callback, so the check is atomic in virtual time. ---
	probeRng := root.Derive("rebalance-probe")
	for i := 0; i < 3; i++ {
		at := time.Duration(probeRng.Uniform(0.30, 0.72) * float64(h))
		e.At(at, func() {
			_, ackedSet := ack.snapshot()
			objs, info, err := client.QueryEx("job_rank_time", nil, nil)
			if err != nil || info.Partial {
				return // a dark group is a liveness gap, not a safety bug
			}
			res.MidChecks++
			if missing := shortfall(ackedSet, multiset(objs)); missing > 0 {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"mid-soak-unreadable: %d acked objects invisible at %.3fs with all groups up", missing, e.Now().Seconds()))
			}
		})
	}

	// --- Quiesce: restore the fleet, finish any deferred move, then let
	// the hops drain every backlog. ---
	e.At(h, func() {
		for _, an := range aggNames {
			restartAgg(an)
		}
		for _, ln := range leafNames {
			tree.SetPartition(ln, false)
			hops[ln].cons.Redeliver()
		}
		for _, pn := range partTargets {
			tree.SetPartition(pn, false)
		}
		for _, sn := range hc.Members() {
			if d := hc.Daemon(sn); !decomm[sn] && d != nil && !d.Up() {
				if err := d.Restart(); err != nil {
					res.Notes = append(res.Notes, fmt.Sprintf("quiesce restart %s: %v", sn, err))
				}
			}
		}
	})
	e.At(h+h/20, func() {
		for _, m := range moves {
			if m.due {
				attempt(m)
			}
		}
	})

	if err := e.Run(0); err != nil {
		return nil, err
	}
	if err := e.Drain(h + h/2); err != nil {
		return nil, err
	}

	// --- Final merged view and invariant audit. ---
	merged, _, err := client.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		return nil, err
	}
	acked, ackedSet := ack.snapshot()
	res.Acked = acked
	res.Deduped = dedup.Duplicates()
	res.Rehomes = tree.Rehomes()
	res.Misses = tree.Misses()
	res.Merged = len(merged)
	res.Log = ctl.Log()
	st := hc.Stats()
	res.Migrations, res.Moved = st.Migrations, st.Moved
	res.Naks = storeCons.Stats().Naks
	for _, u := range hops {
		res.AckLost += u.ackLost
	}

	// 1-2. No acked record lost, and no (producer, seq) stored twice:
	// below dedup each identity is acked at most once, so the merged view
	// must never exceed the acked multiset.
	_, _, violations := auditAcked(ackedSet, multiset(merged), ackedSet, "the acked multiset")
	res.Violations = append(res.Violations, violations...)

	// 3. Exactly one owner per key (and no shard holding an origin twice
	// — the placement half of invariant 2).
	if violations, err := hc.AuditPlacement(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("placement-audit-error: %v", err))
	} else {
		for _, v := range violations {
			res.Violations = append(res.Violations, "placement: "+v)
		}
	}

	// 4. Re-homing never regresses a consumer ack floor.
	for _, child := range tree.Members() {
		if u := hops[child]; u != nil && u.regressions > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("ack-floor-regression: uplink %s regressed %d times", child, u.regressions))
		}
	}

	res.Obs = reg.Snapshot()
	return res, nil
}

// RebalanceSoak runs the calm rebalance plus every seeded fault
// schedule. Everything derives from cfg.Seed, so a soak replays
// bit-for-bit.
func RebalanceSoak(cfg RebalanceSoakConfig) (*RebalanceSoakResult, error) {
	def := DefaultRebalanceSoakConfig(cfg.Seed)
	orDefault(&cfg.Schedules, def.Schedules)
	orDefault(&cfg.EventsPerSchedule, def.EventsPerSchedule)
	orDefault(&cfg.Leaves, def.Leaves)
	orDefault(&cfg.MsgsPerLeaf, def.MsgsPerLeaf)
	orDefault(&cfg.Horizon, def.Horizon)
	orDefault(&cfg.Shards, def.Shards)
	placement := "hash ring + live rebalance"
	if cfg.Static {
		placement = "static placement (baseline)"
	}
	out := &RebalanceSoakResult{
		Label: fmt.Sprintf("%d leaves -> L1 -> L2 -> %d shards, %s",
			cfg.Leaves, cfg.Shards, placement),
		Config: cfg,
	}
	calm, err := runRebalanceSoak(cfg, "calm", nil)
	if err != nil {
		return nil, err
	}
	out.Calm = *calm
	out.Violations += len(calm.Violations)
	scheduleRoot := rng.New(cfg.Seed)
	for i := 0; i < cfg.Schedules; i++ {
		r := scheduleRoot.DeriveN("rebalance-schedule", i)
		name := fmt.Sprintf("rebal-%02d", i)
		mk := func(aggs, parts, shards []string) faults.Profile {
			return rebalanceSchedule(r, name, cfg.Horizon, aggs, parts, shards, cfg.EventsPerSchedule)
		}
		res, err := runRebalanceSoak(cfg, name, mk)
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, *res)
		out.Violations += len(res.Violations)
	}
	return out, nil
}

// RenderRebalanceSoak formats the soak as a per-schedule accounting
// table plus every violation (with notes and the fault log of violating
// runs) and the calm run's control-plane telemetry snapshot.
func RenderRebalanceSoak(c *RebalanceSoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Rebalance soak: %s (seed %d, %d schedules, horizon %.3fs)\n",
		c.Label, c.Config.Seed, len(c.Runs), c.Config.Horizon.Seconds())
	fmt.Fprintf(&b, "%-10s %9s %7s %7s %6s %8s %7s %7s %6s %6s %7s %s\n",
		"schedule", "produced", "acked", "dedup", "naks", "acklost", "rehome", "miss", "migr", "moved", "merged", "invariants")
	row := func(r RebalanceRunResult) {
		fmt.Fprintf(&b, "%-10s %9d %7d %7d %6d %8d %7d %7d %6d %6d %7d %s\n",
			r.Schedule, r.Produced, r.Acked, r.Deduped, r.Naks, r.AckLost, r.Rehomes,
			r.Misses, r.Migrations, r.Moved, r.Merged, verdict(r.Violations))
	}
	row(c.Calm)
	for _, r := range c.Runs {
		row(r)
	}
	fmt.Fprintf(&b, "total invariant violations: %d\n", c.Violations)
	for _, r := range c.Runs {
		if len(r.Violations) > 0 {
			renderRunDetail(&b, r.Schedule+" violations:", r.Violations, r.Notes, r.Log)
		}
	}
	renderObsSection(&b, "control plane snapshot (calm run):", c.Calm.Obs)
	return b.String()
}
