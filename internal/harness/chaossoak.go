package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/event"
	"darshanldms/internal/faults"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// The chaos soak is the durability layer's acceptance harness: it reruns
// the HACC-IO pipeline under many randomized (but seeded, so reproducible)
// fault schedules and audits Jepsen-style invariants after every run:
//
//  1. No acked event lost — every object whose store ack reached the
//     transport is present in the final merged query.
//  2. No duplicate stored — the merged view never holds more copies of an
//     object than the fault-free oracle run produced.
//  3. Replicas converge — after recovery and read repair every origin id
//     is present on at least R daemons, and a second query repairs nothing.
//  4. Oracle equality — a run that recorded no losses anywhere reproduces
//     the fault-free oracle's merged view exactly.
//
// With the durable configuration (write-ahead logs + R=2) all four hold
// under every schedule; with the legacy configuration (R=1, no WAL) the
// soak demonstrates the losses and duplicates the paper's best-effort
// stream stack is exposed to.

// ChaosSoakConfig parameterizes a soak.
type ChaosSoakConfig struct {
	Seed              uint64
	Schedules         int     // randomized fault schedules to run (default 20)
	EventsPerSchedule int     // link/store fault draws per schedule (default 6)
	Scale             float64 // workload scale factor (default 1)
	ParticlesPerRank  int64   // HACC-IO size before scaling (default 5M)
	FSKind            simfs.Kind
	Daemons           int  // dsosd count (default 4)
	Replication       int  // DSOS replication factor (default 2)
	WAL               bool // per-daemon write-ahead logs
}

// DefaultChaosSoakConfig is the durable full-size soak: 20 schedules
// against a 4-daemon R=2 cluster with write-ahead logs.
func DefaultChaosSoakConfig(seed uint64) ChaosSoakConfig {
	return ChaosSoakConfig{
		Seed: seed, Schedules: 20, EventsPerSchedule: 6,
		Scale: 0.02, ParticlesPerRank: 5_000_000, FSKind: simfs.Lustre,
		Daemons: 4, Replication: 2, WAL: true,
	}
}

// ChaosRunResult reports one soak run and its invariant audit.
type ChaosRunResult struct {
	Schedule       string
	Runtime        time.Duration
	Published      uint64 // connector messages published on node buses
	Acked          uint64 // message identities acked durable by the store chain
	Deduped        uint64 // replayed deliveries suppressed by the dedup layer
	LinkDropped    uint64 // lost on partitioned links or overflowed buffers
	LinkRecovered  uint64 // held during stalls/outages, delivered after
	LinkDuplicated uint64 // tail re-deliveries from replay-outage heals
	StoreRetries   uint64 // ingest retry attempts
	StoreDrops     uint64 // messages lost at the store after retries
	WALRecovered   uint64 // WAL records replayed across daemon restarts
	Repaired       int    // replica copies written by read repair
	Merged         int    // objects in the final merged query
	Violations     []string
	Log            []faults.Record
	Obs            []obs.Sample // per-stage telemetry snapshot, taken post-audit
}

// ChaosSoakResult is a full soak: the fault-free oracle plus one run per
// schedule.
type ChaosSoakResult struct {
	Label      string
	Config     ChaosSoakConfig
	Oracle     ChaosRunResult
	Runs       []ChaosRunResult
	Violations int // total across all runs
}

// chaosReplayTail is the at-least-once tail every link retains for
// replay-outage heals — duplicates for the dedup layer to absorb.
const chaosReplayTail = 32

// chaosObjKey is the multiset identity of one stored object.
func chaosObjKey(o sos.Object) string { return fmt.Sprintf("%v", o.Values()) }

// ackRecorder sits between the dedup layer and the retry/store chain: on
// inner success it records the objects the caller was just promised are
// durable — the "acked" side of the no-acked-event-lost invariant. Below
// the dedup layer it sees each stored identity exactly once.
type ackRecorder struct {
	inner ldms.StorePlugin
	mu    sync.Mutex
	acked uint64
	objs  map[string]int
}

func newAckRecorder(inner ldms.StorePlugin) *ackRecorder {
	return &ackRecorder{inner: inner, objs: map[string]int{}}
}

// Name implements ldms.StorePlugin.
func (a *ackRecorder) Name() string { return "acktrack(" + a.inner.Name() + ")" }

// Store implements ldms.StorePlugin.
func (a *ackRecorder) Store(m streams.Message) error {
	if err := a.inner.Store(m); err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.acked++
	if msg, err := event.Fields(m); err == nil {
		for _, o := range dsos.ObjectsFromMessage(msg) {
			a.objs[chaosObjKey(o)]++
		}
	}
	return nil
}

func (a *ackRecorder) snapshot() (uint64, map[string]int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int, len(a.objs))
	for k, n := range a.objs {
		out[k] = n
	}
	return a.acked, out
}

// soakSchedule draws one randomized fault schedule. Link and store faults
// are drawn freely over the first 80% of the horizon, overlaps welcome;
// daemon crashes are confined to disjoint per-target time slots so at most
// one replica of any placement group is down at a time — the single-failure
// regime an R-replica cluster is sized for. (Crashing a whole placement
// group at once makes inserts fail outright; that tests admission, not
// durability of acked data.)
func soakSchedule(r *rng.Stream, name string, horizon time.Duration, links, crashes []string, n int) faults.Profile {
	p := faults.Profile{Name: name}
	h := float64(horizon)
	for i := 0; i < n; i++ {
		at := time.Duration(r.Float64() * 0.8 * h)
		dur := time.Duration(r.Uniform(0.05, 0.15) * h)
		link := links[r.Intn(len(links))]
		switch r.Intn(5) {
		case 0:
			p.Events = append(p.Events, faults.Event{Kind: faults.LinkPartition, Target: link, At: at, Duration: dur})
		case 1:
			p.Events = append(p.Events, faults.Event{
				Kind: faults.LatencySpike, Target: link, At: at, Duration: dur,
				Extra: time.Duration(r.Uniform(1, 20)) * time.Millisecond,
			})
		case 2:
			p.Events = append(p.Events, faults.Event{Kind: faults.SlowSubscriber, Target: link, At: at, Duration: dur})
		case 3:
			p.Events = append(p.Events, faults.Event{Kind: faults.ReplayOutage, Target: link, At: at, Duration: dur})
		case 4:
			p.Events = append(p.Events, faults.Event{Kind: faults.StoreFault, Target: "store", At: at, Duration: dur})
		}
	}
	slot := h / float64(len(crashes)+1)
	for i, target := range crashes {
		if !r.Bool(0.6) {
			continue
		}
		at := time.Duration(float64(i)*slot + r.Float64()*0.4*slot)
		dur := time.Duration(r.Uniform(0.2, 0.5) * slot)
		p.Events = append(p.Events, faults.Event{Kind: faults.DaemonCrash, Target: target, At: at, Duration: dur})
	}
	sort.Slice(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p
}

// runChaosSoak executes one HACC-IO run against the durable DSOS pipeline.
// mkProfile (nil for the fault-free oracle) receives the registered link
// and crash-target names once the topology exists. oracle is the fault-free
// merged multiset (nil when this run IS the oracle); the merged multiset of
// this run is returned for that purpose.
func runChaosSoak(cfg ChaosSoakConfig, name string, mkProfile func(links, crashes []string) faults.Profile, horizon time.Duration, oracle map[string]int) (*ChaosRunResult, map[string]int, error) {
	e := sim.NewEngine()
	defer e.Close()
	m := cluster.New(e, cluster.Voltrino())
	root := rng.New(cfg.Seed)

	var fscfg simfs.Config
	if cfg.FSKind == simfs.Lustre {
		fscfg = simfs.DefaultLustre()
	} else {
		fscfg = simfs.DefaultNFS()
	}
	fscfg.Load = simfs.NominalLoad()
	fs := simfs.New(e, fscfg, root.Derive("fs"))

	rt := darshan.NewRuntime(darshan.Config{
		JobID: 1, UID: 99066, Exe: "/projects/hacc/hacc-io", DXT: true,
	}, 0)

	// Same fault-injectable topology as the campaign, with every link
	// retaining an at-least-once replay tail.
	ctl := faults.NewController(e)
	head := ldms.NewAggregator("agg-head", m.Head().Name)
	remote := ldms.NewAggregator("agg-remote", "shirley")
	uplink := faults.NewLink(e, head.Daemon, remote.Daemon, connector.DefaultTag, 300*time.Microsecond)
	uplink.SetReplayTail(chaosReplayTail)
	ctl.RegisterLink("uplink", uplink)
	allLinks := []*faults.Link{uplink}
	linkNames := []string{"uplink"}
	nodeDaemons := map[string]*ldms.Daemon{}
	for _, n := range m.Nodes() {
		d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
		d.AddSampler(ldms.NewMeminfoSampler(64<<20, root.DeriveN("meminfo", n.Index)))
		nodeDaemons[n.Name] = d
		l := faults.NewLink(e, d, head.Daemon, connector.DefaultTag, 150*time.Microsecond)
		l.SetReplayTail(chaosReplayTail)
		ln := "node-" + n.Name
		ctl.RegisterLink(ln, l)
		allLinks = append(allLinks, l)
		linkNames = append(linkNames, ln)
	}
	crash, restart := faults.CrashDaemon(allLinks...)
	ctl.RegisterCrash("agg-head", crash, restart)

	// Storage: a DSOS cluster with the configured durability knobs. Every
	// dsosd is a crash target; its restart hook replays the WAL (if any).
	sc := dsos.NewCluster(cfg.Daemons, "chaos-darshan")
	if err := dsos.SetupDarshan(sc); err != nil {
		return nil, nil, err
	}
	sc.SetReplication(cfg.Replication)
	if cfg.WAL {
		sc.EnableWAL(nil)
	}
	crashNames := []string{}
	for _, d := range sc.Daemons() {
		d := d
		ctl.RegisterCrash(d.Name, d.Crash, func() { _ = d.Restart() })
		crashNames = append(crashNames, d.Name)
	}
	crashNames = append(crashNames, "agg-head")
	client := dsos.Connect(sc)

	// Store chain, outermost first: dedup absorbs replayed deliveries, the
	// ack recorder witnesses what was promised durable, retry rides out
	// transient store faults, flaky injects them, DSOS stores.
	dstore := ldms.NewDSOSStore(client)
	flaky := faults.NewFlakyStore(dstore, root.Derive("storefault"), storeFailProb)
	retry := ldms.NewRetryStore(flaky, ldms.RetryConfig{Attempts: 4})
	ack := newAckRecorder(retry)
	dedup := ldms.NewDedupStore(ack)
	handle := remote.AttachStore(connector.DefaultTag, dedup)
	ctl.RegisterToggle("store", flaky.SetActive)

	conn := connector.Attach(rt, connector.Config{
		Encoder:        jsonmsg.FastEncoder{},
		Meta:           jsonmsg.JobMeta{UID: 99066, JobID: 1, Exe: "/projects/hacc/hacc-io"},
		ChargeOverhead: true,
	}, func(producer string) *ldms.Daemon { return nodeDaemons[producer] })

	// Telemetry: every soak run carries its own registry and the report
	// embeds the snapshot, so the per-stage breakdown is always next to
	// the invariant audit. Trace hops run on the engine's virtual clock.
	reg := obs.NewRegistry()
	clock := obs.Clock(e.Now)
	conn.Instrument(reg)
	connector.Collect(reg, []*connector.Connector{conn})
	nodeBuses := make([]*streams.Bus, 0, len(nodeDaemons))
	for _, n := range m.Nodes() {
		d := nodeDaemons[n.Name]
		d.Bus().Instrument(hopNodeBus, clock)
		nodeBuses = append(nodeBuses, d.Bus())
	}
	collectBusGroup(reg, hopNodeBus, nodeBuses)
	head.Daemon.Bus().Instrument(hopHeadBus, clock)
	head.Daemon.Bus().Collect(reg, hopHeadBus)
	remote.Daemon.Bus().Instrument(hopRemoteBus, clock)
	remote.Daemon.Bus().Collect(reg, hopRemoteBus)
	dedup.Instrument(reg, clock)
	retry.Collect(reg)
	dstore.Instrument(reg, clock)
	sc.Instrument(reg, clock)

	profile := faults.Profile{Name: name}
	if mkProfile != nil {
		profile = mkProfile(linkNames, crashNames)
	}
	if err := ctl.Apply(profile); err != nil {
		return nil, nil, err
	}

	// Mid-run queries exercise quorum merge and read repair while the
	// faults are live (the paper's run-time diagnosis, against a degraded
	// store).
	midRepaired := 0
	if horizon > 0 {
		for _, f := range []float64{0.4, 0.75} {
			e.At(time.Duration(f*float64(horizon)), func() {
				if _, info, err := client.QueryEx("job_rank_time", nil, nil); err == nil {
					midRepaired += info.Repaired
				}
			})
		}
	}

	hacc := apps.DefaultHACCIO(m.Nodes()[:16], scaleInt64(cfg.ParticlesPerRank, cfg.Scale))
	apps.RunHACCIO(apps.Env{E: e, M: m, FS: fs, RT: rt}, hacc)
	if err := e.Run(0); err != nil {
		return nil, nil, err
	}
	runtime := e.Now()
	if err := e.Drain(runtime + time.Second); err != nil {
		return nil, nil, err
	}

	// Recover the fleet: any daemon still down comes back (replaying its
	// WAL) before the audit, like operators restoring service post-incident.
	for _, d := range sc.Daemons() {
		if err := d.Restart(); err != nil {
			return nil, nil, err
		}
	}

	merged, info, err := client.QueryEx("job_rank_time", nil, nil)
	if err != nil {
		return nil, nil, err
	}
	mergedSet := map[string]int{}
	for _, o := range merged {
		mergedSet[chaosObjKey(o)]++
	}

	res := &ChaosRunResult{
		Schedule:  profile.Name,
		Runtime:   runtime,
		Published: conn.Stats().Published,
		Deduped:   dedup.Duplicates(),
		Repaired:  midRepaired + info.Repaired,
		Merged:    len(merged),
		Log:       ctl.Log(),
	}
	acked, ackedSet := ack.snapshot()
	res.Acked = acked
	for _, l := range allLinks {
		st := l.Stats()
		res.LinkDropped += st.Dropped
		res.LinkRecovered += st.Recovered
		res.LinkDuplicated += st.Duplicated
	}
	retries, failures, _ := retry.Stats()
	res.StoreRetries = retries
	res.StoreDrops = failures
	for _, d := range sc.Daemons() {
		res.WALRecovered += d.Recovered()
	}

	// --- Invariant audit ---

	// 1. No acked event lost.
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

	// 2. No duplicate stored: the merged view never exceeds the fault-free
	// oracle (or, for the oracle run itself, its own acked multiset).
	ref := oracle
	if ref == nil {
		ref = ackedSet
	}
	extra := 0
	for k, n := range mergedSet {
		if n > ref[k] {
			extra += n - ref[k]
		}
	}
	if extra > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("duplicate-stored: %d objects beyond the fault-free reference", extra))
	}

	// 3. Replicas converge: post-repair, every origin on >= R daemons and a
	// second query finds nothing left to repair.
	if cfg.Replication > 1 {
		copies := map[uint64]int{}
		for _, d := range sc.Daemons() {
			err := d.IterOrigins("job_rank_time", nil, func(_ sos.Object, o uint64) bool {
				if o != 0 {
					copies[o]++
				}
				return true
			})
			if err != nil {
				return nil, nil, err
			}
		}
		under := 0
		for _, c := range copies {
			if c < cfg.Replication {
				under++
			}
		}
		if under > 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("replica-divergence: %d origins under-replicated after read repair", under))
		}
		again, info2, err := client.QueryEx("job_rank_time", nil, nil)
		if err != nil {
			return nil, nil, err
		}
		if len(again) != len(merged) || info2.Repaired != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("unstable-view: second query returned %d objects and repaired %d (want %d and 0)",
					len(again), info2.Repaired, len(merged)))
		}
	}

	res.Obs = reg.Snapshot()

	// 4. A lossless run must reproduce the oracle exactly.
	storeErrs, _ := handle.Errors()
	if oracle != nil && res.LinkDropped == 0 && res.StoreDrops == 0 && storeErrs == 0 {
		if len(mergedSet) != len(oracle) || missing > 0 || extra > 0 || res.Merged != multisetSize(oracle) {
			res.Violations = append(res.Violations,
				"oracle-mismatch: lossless run diverged from the fault-free oracle")
		}
	}

	return res, mergedSet, nil
}

func multisetSize(set map[string]int) int {
	n := 0
	for _, c := range set {
		n += c
	}
	return n
}

// ChaosSoak runs the fault-free oracle and then every randomized schedule,
// auditing the invariants after each. Everything is drawn from cfg.Seed, so
// a soak replays bit-for-bit.
func ChaosSoak(cfg ChaosSoakConfig) (*ChaosSoakResult, error) {
	if cfg.Schedules <= 0 {
		cfg.Schedules = 20
	}
	if cfg.EventsPerSchedule <= 0 {
		cfg.EventsPerSchedule = 6
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.ParticlesPerRank <= 0 {
		cfg.ParticlesPerRank = 5_000_000
	}
	if cfg.Daemons <= 0 {
		cfg.Daemons = 4
	}
	if cfg.Replication <= 0 {
		cfg.Replication = 2
	}

	oracleRes, oracleSet, err := runChaosSoak(cfg, "oracle", nil, 0, nil)
	if err != nil {
		return nil, err
	}
	out := &ChaosSoakResult{
		Label: fmt.Sprintf("HACC-IO %s, %d dsosd, R=%d, WAL=%v",
			cfg.FSKind, cfg.Daemons, cfg.Replication, cfg.WAL),
		Config: cfg,
		Oracle: *oracleRes,
	}
	out.Violations += len(oracleRes.Violations)
	horizon := oracleRes.Runtime
	scheduleRoot := rng.New(cfg.Seed)
	for i := 0; i < cfg.Schedules; i++ {
		r := scheduleRoot.DeriveN("chaos-schedule", i)
		name := fmt.Sprintf("chaos-%02d", i)
		mk := func(links, crashes []string) faults.Profile {
			return soakSchedule(r, name, horizon, links, crashes, cfg.EventsPerSchedule)
		}
		res, _, err := runChaosSoak(cfg, name, mk, horizon, oracleSet)
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, *res)
		out.Violations += len(res.Violations)
	}
	return out, nil
}

// RenderChaosSoak formats the soak as a per-schedule accounting table plus
// every invariant violation (and the fault log of violating runs).
func RenderChaosSoak(c *ChaosSoakResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos soak: %s (seed %d, %d schedules, oracle runtime %.3fs, oracle objects %d)\n",
		c.Label, c.Config.Seed, len(c.Runs), c.Oracle.Runtime.Seconds(), c.Oracle.Merged)
	fmt.Fprintf(&b, "%-10s %9s %7s %7s %8s %7s %7s %7s %8s %7s %7s %s\n",
		"schedule", "published", "acked", "deduped", "dropped", "recov", "dup", "retries", "walrec", "repair", "merged", "invariants")
	row := func(r ChaosRunResult) {
		verdict := "ok"
		if len(r.Violations) > 0 {
			verdict = fmt.Sprintf("VIOLATED (%d)", len(r.Violations))
		}
		fmt.Fprintf(&b, "%-10s %9d %7d %7d %8d %7d %7d %7d %8d %7d %7d %s\n",
			r.Schedule, r.Published, r.Acked, r.Deduped, r.LinkDropped, r.LinkRecovered,
			r.LinkDuplicated, r.StoreRetries, r.WALRecovered, r.Repaired, r.Merged, verdict)
	}
	row(c.Oracle)
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
		for _, rec := range r.Log {
			fmt.Fprintf(&b, "  %s\n", rec)
		}
	}
	renderObsSection(&b, "pipeline stage snapshot (oracle run):", c.Oracle.Obs)
	return b.String()
}
