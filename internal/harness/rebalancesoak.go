package harness

import (
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
// from durable streams and topo uplinks, feeding a consistent-hash shard
// cluster, rerun under many seeded schedules that crash aggregators,
// partition uplinks, crash shards AND trigger a live grow + shrink
// rebalance mid-soak. After every run four invariants are audited:
//
//  1. No acked record lost — every object the store chain acked is in
//     the final merged query.
//  2. No (producer, seq) stored twice — the merged view never exceeds
//     the acked multiset, and no shard holds an origin twice.
//  3. Exactly one post-cutover owner — every stored origin lives on
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
	Schedule     string
	Produced     uint64 // records appended to leaf streams
	Acked        uint64 // identities acked durable by the store chain
	Deduped      uint64 // replayed deliveries absorbed by dedup
	Naks         uint64 // store-pump naks (down-shard backpressure)
	AckLost      uint64 // uplink acks lost to crashes inside the ack gap
	Rehomes      uint64 // tree failovers
	Misses       uint64 // heartbeat misses
	Migrations   uint64 // completed cutovers
	Aborts       uint64
	Moved        uint64 // objects copied by handoff replays
	FencedWrites uint64
	MidChecks    int // mid-soak readability probes that ran
	Merged       int // objects in the final merged query
	Notes        []string
	Violations   []string
	Log          []faults.Record
	Obs          []obs.Sample
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

// rebalanceTopo is one assembled soak topology.
type rebalanceTopo struct {
	e       *sim.Engine
	tree    *topo.Tree
	uplinks map[string]*topo.Uplink
	hc      *topo.HashCluster
	pump    *topo.StorePump
	dedup   *ldms.DedupStore
	ack     *ackRecorder
	decomm  map[string]bool // baseline decommissioned shards
	notes   []string
}

const (
	rebalanceContainer = "rebalance-darshan"
	rebalanceSpare     = "dsosd-spare"
	rebalanceVictim    = "dsosd2"
)

// rebalanceShardFactory builds the shard a grow adds: the darshan schema,
// its indices and a fresh in-memory WAL.
func rebalanceShardFactory(name string) (*dsos.Daemon, error) {
	d := dsos.NewDaemon(name, rebalanceContainer)
	d.EnableWAL(sos.NewMemWAL())
	if err := d.AddSchema(dsos.DarshanSchema()); err != nil {
		return nil, err
	}
	for _, spec := range dsos.DarshanIndices() {
		if err := d.AddIndex(spec); err != nil {
			return nil, err
		}
	}
	return d, nil
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

// runRebalanceSoak executes one soak run. mkProfile nil = the calm run
// (grow + shrink on fixed times, no faults).
func runRebalanceSoak(cfg RebalanceSoakConfig, name string, mkProfile func(aggs, parts, shards []string) faults.Profile) (*RebalanceRunResult, error) {
	e := sim.NewEngine()
	defer e.Close()
	root := rng.New(cfg.Seed)
	h := cfg.Horizon

	rt := &rebalanceTopo{
		e:       e,
		tree:    topo.NewTree(e.Now, topo.DefaultFailAfter),
		uplinks: map[string]*topo.Uplink{},
		decomm:  map[string]bool{},
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
		Clock:   e.Now,
	}, sc)
	if err != nil {
		return nil, err
	}
	rt.hc = hc
	client := dsos.Connect(sc)

	// --- Aggregation tree: leaves -> L1 (a,b; standby s) -> L2 (c;
	// standby d) -> store head. Every non-root member owns a durable
	// stream teed off its bus and an uplink pumping it to the tree's
	// current routing decision. ---
	type agg struct{ name, parent, standby string }
	aggSpecs := []agg{
		{"store-head", "", ""},
		{"agg-d", "store-head", ""},
		{"agg-c", "store-head", "agg-d"},
		{"agg-s", "agg-c", "agg-d"},
		{"agg-a", "agg-c", "agg-s"},
		{"agg-b", "agg-c", "agg-s"},
	}
	buses := map[string]*streams.Bus{}
	streamsByName := map[string]*streams.DurableStream{}
	mkMember := func(name, parent, standby string, role topo.Role) error {
		bus := streams.NewBus()
		buses[name] = bus
		if err := rt.tree.Add(topo.Spec{Name: name, Role: role, Parent: parent, Standby: standby, Bus: bus}); err != nil {
			return err
		}
		s, err := streams.OpenStream(streams.StreamConfig{Name: name, Clock: e.Now}, sos.NewMemWAL())
		if err != nil {
			return err
		}
		if err := bus.BindStream(s); err != nil {
			return err
		}
		streamsByName[name] = s
		return nil
	}
	for _, a := range aggSpecs {
		role := topo.RoleAgg
		if a.parent == "" {
			role = topo.RoleRoot
		}
		if err := mkMember(a.name, a.parent, a.standby, role); err != nil {
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
	// Uplinks for every non-root member.
	for _, name := range rt.tree.Members() {
		if name == "store-head" {
			continue
		}
		u, err := topo.StartUplink(e, rt.tree, name, streamsByName[name], topo.PumpConfig{})
		if err != nil {
			return nil, err
		}
		rt.uplinks[name] = u
	}

	// --- Store chain on the head: dedup -> ack witness -> DSOS store. ---
	rt.ack = newAckRecorder(ldms.NewDSOSStore(client))
	rt.dedup = ldms.NewDedupStore(rt.ack)
	pump, err := topo.StartStorePump(e, streamsByName["store-head"], rt.dedup, topo.PumpConfig{})
	if err != nil {
		return nil, err
	}
	rt.pump = pump

	// --- Fault wiring. ---
	ctl := faults.NewController(e)
	aggNames := []string{"agg-a", "agg-b", "agg-s", "agg-c", "agg-d"}
	for _, an := range aggNames {
		an := an
		ctl.RegisterCrash(an, func() { rt.tree.Crash(an) }, func() {
			rt.tree.Restart(an)
			rt.uplinks[an].Redeliver()
		})
	}
	partTargets := []string{"agg-a", "agg-b", "leaf-00", leafNames[cfg.Leaves/2]}
	for _, pn := range partTargets {
		pn := pn
		ctl.RegisterToggle("part-"+pn, func(on bool) { rt.tree.SetPartition(pn, on) })
	}
	for _, d := range shards {
		d := d
		ctl.RegisterCrash(d.Name, d.Crash, func() {
			if rt.decomm[d.Name] {
				return // baseline decommission is permanent
			}
			if err := d.Restart(); err != nil {
				rt.notes = append(rt.notes, fmt.Sprintf("restart %s: %v", d.Name, err))
			}
		})
	}
	// Rebalance windows: toggle on = begin, toggle off = cutover. In the
	// static baseline a grow is impossible and a shrink is a decommission
	// — the victim shard dies with its data still placed on it.
	note := func(format string, args ...any) {
		rt.notes = append(rt.notes, fmt.Sprintf("[%8.3fs] %s", e.Now().Seconds(), fmt.Sprintf(format, args...)))
	}
	ctl.RegisterToggle("grow", func(on bool) {
		if cfg.Static {
			if on {
				note("grow: static placement cannot add a shard")
			}
			return
		}
		if on {
			if err := hc.BeginAdd(rebalanceSpare); err != nil {
				note("grow begin: %v", err)
			}
			return
		}
		if !hc.Migrating() {
			return
		}
		if err := hc.Cutover(); err != nil {
			note("grow cutover deferred: %v", err)
		}
	})
	ctl.RegisterToggle("shrink", func(on bool) {
		if cfg.Static {
			if on {
				note("shrink: static placement decommissions %s, stranding its keys", rebalanceVictim)
				rt.decomm[rebalanceVictim] = true
				hc.Daemon(rebalanceVictim).Crash()
			}
			return
		}
		if on {
			if err := hc.BeginRemove(rebalanceVictim); err != nil {
				note("shrink begin: %v", err)
			}
			return
		}
		if !hc.Migrating() {
			return
		}
		if err := hc.Cutover(); err != nil {
			note("shrink cutover deferred: %v", err)
		}
	})

	// --- Telemetry. ---
	reg := obs.NewRegistry()
	rt.tree.Collect(reg)
	hc.Collect(reg)
	rt.dedup.Instrument(reg, obs.Clock(e.Now))
	for _, ln := range leafNames {
		rt.uplinks[ln].Collect(reg)
	}

	// --- Workload: each leaf appends typed connector records with a
	// unique (producer, seq) identity to its own durable stream. ---
	produceFor := time.Duration(0.7 * float64(h))
	interval := produceFor / time.Duration(cfg.MsgsPerLeaf)
	var produced uint64
	for li, ln := range leafNames {
		li, ln := li, ln
		jit := root.DeriveN("rebalance-producer", li)
		e.Spawn("produce-"+ln, func(p *sim.Proc) {
			for i := 0; i < cfg.MsgsPerLeaf; i++ {
				p.Sleep(interval + time.Duration(jit.Intn(int(interval/4)+1)))
				msg := &jsonmsg.Message{
					UID: 99066, Exe: "/projects/hacc/hacc-io",
					JobID: int64(1 + i/50), Rank: li*1000 + i%8,
					ProducerName: ln, File: "/scratch/hacc", RecordID: uint64(i),
					Module: "POSIX", Type: jsonmsg.TypeMOD, Op: "write",
					MaxByte: -1, Cnt: 1,
					Seg: []jsonmsg.Segment{{
						DataSet: jsonmsg.NA, PtSel: -1, IrregHSlab: -1, RegHSlab: -1,
						NDims: -1, NPoints: -1, Off: int64(i) * 4096, Len: 4096,
						Dur: 0.01, Timestamp: float64(li*1_000_000 + i),
					}},
				}
				_, err := streamsByName[ln].Append(streams.Message{
					Tag:      "darshanConnector",
					Record:   event.NewRecord(msg, nil),
					Producer: ln,
					Seq:      uint64(i + 1),
				})
				if err != nil {
					panic(err)
				}
				produced++
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

	// --- Mid-soak readability probes: while faults and migrations are
	// live, everything already acked must still be readable whenever no
	// placement group is dark. Snapshot and query run in one engine
	// callback, so the check is atomic in virtual time. ---
	res := &RebalanceRunResult{Schedule: profile.Name}
	probeRng := root.Derive("rebalance-probe")
	for i := 0; i < 3; i++ {
		at := time.Duration(probeRng.Uniform(0.30, 0.72) * float64(h))
		e.At(at, func() {
			_, ackedSet := rt.ack.snapshot()
			objs, info, err := client.QueryEx("job_rank_time", nil, nil)
			if err != nil || info.Partial {
				return // a dark group is a liveness gap, not a safety bug
			}
			res.MidChecks++
			got := map[string]int{}
			for _, o := range objs {
				got[chaosObjKey(o)]++
			}
			missing := 0
			for k, n := range ackedSet {
				if got[k] < n {
					missing += n - got[k]
				}
			}
			if missing > 0 {
				res.Violations = append(res.Violations, fmt.Sprintf(
					"mid-soak-unreadable: %d acked objects invisible at %.3fs with all groups up", missing, e.Now().Seconds()))
			}
		})
	}

	// --- Quiesce: restore the fleet, finish any staged migration, then
	// let the pumps drain every backlog. ---
	e.At(h, func() {
		for _, an := range aggNames {
			rt.tree.Restart(an)
			rt.uplinks[an].Redeliver()
		}
		for _, ln := range leafNames {
			rt.tree.SetPartition(ln, false)
			rt.uplinks[ln].Redeliver()
		}
		for _, pn := range partTargets {
			rt.tree.SetPartition(pn, false)
		}
		for _, sn := range hc.Members() {
			if rt.decomm[sn] {
				continue
			}
			d := hc.Daemon(sn)
			if d != nil && !d.Up() {
				if err := d.Restart(); err != nil {
					rt.notes = append(rt.notes, fmt.Sprintf("quiesce restart %s: %v", sn, err))
				}
			}
		}
	})
	e.At(h+h/20, func() {
		if hc.Migrating() {
			if err := hc.Cutover(); err != nil {
				note("final cutover failed (%v); aborting migration", err)
				if err := hc.Abort(); err != nil {
					note("final abort: %v", err)
				}
			}
		}
		if err := hc.Settle(); err != nil {
			note("settle: %v", err)
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
	mergedSet := map[string]int{}
	for _, o := range merged {
		mergedSet[chaosObjKey(o)]++
	}
	acked, ackedSet := rt.ack.snapshot()

	res.Produced = produced
	res.Acked = acked
	res.Deduped = rt.dedup.Duplicates()
	res.Rehomes = rt.tree.Rehomes()
	res.Misses = rt.tree.Misses()
	res.Merged = len(merged)
	res.Notes = rt.notes
	res.Log = ctl.Log()
	st := hc.Stats()
	res.Migrations, res.Aborts, res.Moved, res.FencedWrites = st.Migrations, st.Aborts, st.Moved, st.FencedWrites
	_, naks, _ := rt.pump.Stats()
	res.Naks = naks
	for _, u := range rt.uplinks {
		res.AckLost += u.State().AckLost
	}

	// 1. No acked record lost.
	missing := 0
	for k, n := range ackedSet {
		if mergedSet[k] < n {
			missing += n - mergedSet[k]
		}
	}
	if missing > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("acked-but-lost: %d acked objects missing from the merged view", missing))
	}

	// 2. No (producer, seq) stored twice: below dedup each identity is
	// acked at most once, so the merged view must never exceed it.
	extra := 0
	for k, n := range mergedSet {
		if n > ackedSet[k] {
			extra += n - ackedSet[k]
		}
	}
	if extra > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("duplicate-stored: %d objects beyond the acked multiset", extra))
	}

	// 3. Exactly one post-cutover owner per key (and no shard holding an
	// origin twice — the placement half of invariant 2).
	if violations, err := hc.AuditPlacement(); err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("placement-audit-error: %v", err))
	} else {
		for _, v := range violations {
			res.Violations = append(res.Violations, "placement: "+v)
		}
	}

	// 4. Re-homing never regresses a consumer ack floor.
	for _, child := range rt.tree.Members() {
		u := rt.uplinks[child]
		if u == nil {
			continue
		}
		if regressions := u.State().FloorRegressions; regressions > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("ack-floor-regression: uplink %s regressed %d times", child, regressions))
		}
	}

	res.Obs = reg.Snapshot()
	return res, nil
}

// RebalanceSoak runs the calm rebalance plus every seeded fault
// schedule. Everything derives from cfg.Seed, so a soak replays
// bit-for-bit.
func RebalanceSoak(cfg RebalanceSoakConfig) (*RebalanceSoakResult, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 20
	}
	if cfg.EventsPerSchedule <= 0 {
		cfg.EventsPerSchedule = 5
	}
	if cfg.Leaves <= 0 {
		cfg.Leaves = 8
	}
	if cfg.MsgsPerLeaf <= 0 {
		cfg.MsgsPerLeaf = 120
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 4 * time.Second
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
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
	fmt.Fprintf(&b, "%-10s %9s %7s %7s %6s %8s %7s %7s %6s %6s %7s %7s %s\n",
		"schedule", "produced", "acked", "dedup", "naks", "acklost", "rehome", "miss", "migr", "moved", "fenced", "merged", "invariants")
	row := func(r RebalanceRunResult) {
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("VIOLATED (%d)", len(r.Violations))
		}
		fmt.Fprintf(&b, "%-10s %9d %7d %7d %6d %8d %7d %7d %6d %6d %7d %7d %s\n",
			r.Schedule, r.Produced, r.Acked, r.Deduped, r.Naks, r.AckLost, r.Rehomes,
			r.Misses, r.Migrations, r.Moved, r.FencedWrites, r.Merged, verdict)
	}
	row(c.Calm)
	for _, r := range c.Runs {
		row(r)
	}
	fmt.Fprintf(&b, "total invariant violations: %d\n", c.Violations)
	for _, r := range c.Runs {
		if len(r.Violations) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s violations:\n", r.Schedule)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		for _, n := range r.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
		for _, rec := range r.Log {
			fmt.Fprintf(&b, "  %s\n", rec)
		}
	}
	renderObsSection(&b, "control plane snapshot (calm run):", c.Calm.Obs)
	return b.String()
}
