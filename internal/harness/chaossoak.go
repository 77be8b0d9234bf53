package harness

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/faults"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/simfs"
	"darshanldms/internal/sos"
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
	client := dsos.Connect(sc)
	dstore := ldms.NewDSOSStore(client)

	p := newFaultPipeline(faultRunConfig{
		seed: cfg.Seed, scale: cfg.Scale, particlesPerRank: cfg.ParticlesPerRank, fsKind: cfg.FSKind,
	}, dstore, "agg-head")
	defer p.e.Close()
	crashNames := []string{}
	for _, d := range sc.Daemons() {
		d := d
		p.ctl.RegisterCrash(d.Name, d.Crash, func() { _ = d.Restart() })
		crashNames = append(crashNames, d.Name)
	}
	crashNames = append(crashNames, "agg-head")
	dstore.Instrument(p.reg, p.clock)
	sc.Instrument(p.reg, p.clock)

	profile := faults.Profile{Name: name}
	if mkProfile != nil {
		profile = mkProfile(p.linkNames, crashNames)
	}
	if err := p.ctl.Apply(profile); err != nil {
		return nil, nil, err
	}

	// Mid-run queries exercise quorum merge and read repair while the
	// faults are live (the paper's run-time diagnosis, against a degraded
	// store).
	midRepaired := 0
	if horizon > 0 {
		for _, f := range []float64{0.4, 0.75} {
			p.e.At(time.Duration(f*float64(horizon)), func() {
				if _, info, err := client.QueryEx("job_rank_time", nil, nil); err == nil {
					midRepaired += info.Repaired
				}
			})
		}
	}

	runtime, err := p.runJob()
	if err != nil {
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
	mergedSet := multiset(merged)

	res := &ChaosRunResult{
		Schedule:  profile.Name,
		Runtime:   runtime,
		Published: p.conn.Stats().Published,
		Deduped:   p.dedup.Duplicates(),
		Repaired:  midRepaired + info.Repaired,
		Merged:    len(merged),
		Log:       p.ctl.Log(),
	}
	acked, ackedSet := p.ack.snapshot()
	res.Acked = acked
	res.LinkDropped, res.LinkRecovered, res.LinkDuplicated = p.linkStats()
	retries, failures, _ := p.retry.Stats()
	res.StoreRetries = retries
	res.StoreDrops = failures
	for _, d := range sc.Daemons() {
		res.WALRecovered += d.Recovered()
	}

	// --- Invariant audit ---

	// 1-2. No acked event lost, and no duplicate stored: the merged view
	// never exceeds the fault-free oracle (or, for the oracle run itself,
	// its own acked multiset).
	ref := oracle
	if ref == nil {
		ref = ackedSet
	}
	missing, extra, violations := auditAcked(ackedSet, mergedSet, ref, "the fault-free reference")
	res.Violations = append(res.Violations, violations...)

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

	res.Obs = p.reg.Snapshot()

	// 4. A lossless run must reproduce the oracle exactly.
	storeErrs, _ := p.handle.Errors()
	if oracle != nil && res.LinkDropped == 0 && res.StoreDrops == 0 && storeErrs == 0 {
		if missing > 0 || extra > 0 || shortfall(oracle, mergedSet) > 0 {
			res.Violations = append(res.Violations,
				"oracle-mismatch: lossless run diverged from the fault-free oracle")
		}
	}

	return res, mergedSet, nil
}

// ChaosSoak runs the fault-free oracle and then every randomized schedule,
// auditing the invariants after each. Everything is drawn from cfg.Seed, so
// a soak replays bit-for-bit.
func ChaosSoak(cfg ChaosSoakConfig) (*ChaosSoakResult, error) {
	orDefault(&cfg.Schedules, 20)
	orDefault(&cfg.EventsPerSchedule, 6)
	orDefault(&cfg.Scale, 1)
	orDefault(&cfg.ParticlesPerRank, 5_000_000)
	orDefault(&cfg.Daemons, 4)
	orDefault(&cfg.Replication, 2)

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
		fmt.Fprintf(&b, "%-10s %9d %7d %7d %8d %7d %7d %7d %8d %7d %7d %s\n",
			r.Schedule, r.Published, r.Acked, r.Deduped, r.LinkDropped, r.LinkRecovered,
			r.LinkDuplicated, r.StoreRetries, r.WALRecovered, r.Repaired, r.Merged, verdict(r.Violations))
	}
	row(c.Oracle)
	for _, r := range c.Runs {
		row(r)
	}
	fmt.Fprintf(&b, "total invariant violations: %d\n", c.Violations)
	for _, r := range c.Runs {
		if len(r.Violations) > 0 {
			renderRunDetail(&b, r.Schedule+" violations:", r.Violations, nil, r.Log)
		}
	}
	renderObsSection(&b, "pipeline stage snapshot (oracle run):", c.Oracle.Obs)
	return b.String()
}
