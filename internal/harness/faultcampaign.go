package harness

import (
	"fmt"
	"strings"
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/faults"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/streams"
)

// The fault campaign reruns the HACC-IO monitoring pipeline under a set of
// fault profiles and reports what the stream lost, kept and recovered. It
// builds its own pipeline (mirroring Run's topology with fault-injectable
// links) rather than touching Run, so the paper campaigns stay bit-identical
// with faults disabled.

// FaultRunResult reports one pipeline execution under one fault profile.
type FaultRunResult struct {
	Profile      string
	Runtime      time.Duration
	Published    uint64          // connector messages published on node buses
	Delivered    uint64          // messages that reached the final store
	Dropped      uint64          // lost to partitions, stall overflow or store failure
	Recovered    uint64          // held during a stall/outage and delivered after it
	Duplicated   uint64          // tail frames re-delivered by replay-outage heals
	Deduped      uint64          // replayed deliveries suppressed before the store
	StoreRetries uint64          // store attempts retried by the ingest retry layer
	StoreDrops   uint64          // messages lost at the store after retries
	Log          []faults.Record // what fired, and when
	Obs          []obs.Sample    // per-stage telemetry snapshot, taken post-run
}

// FaultCampaignResult is a full campaign: a fault-free baseline plus one
// run per profile, all from the same seed.
type FaultCampaignResult struct {
	Label    string
	Seed     uint64
	Baseline FaultRunResult
	Runs     []FaultRunResult
}

// faultRunConfig carries the fixed workload parameters of a campaign.
type faultRunConfig struct {
	seed             uint64
	scale            float64
	particlesPerRank int64
	fsKind           simfs.Kind
}

// storeFailProb is the FlakyStore failure probability while the "store"
// toggle is active; with 4 retry attempts ~87% of hits still land.
const storeFailProb = 0.6

// runUnderFaults executes one HACC-IO job with fault-injectable links and
// the given profile applied. An empty profile is the baseline.
func runUnderFaults(cfg faultRunConfig, profile faults.Profile) (*FaultRunResult, error) {
	e := sim.NewEngine()
	defer e.Close()
	m := cluster.New(e, cluster.Voltrino())
	root := rng.New(cfg.seed)

	var fscfg simfs.Config
	if cfg.fsKind == simfs.Lustre {
		fscfg = simfs.DefaultLustre()
	} else {
		fscfg = simfs.DefaultNFS()
	}
	fscfg.Load = simfs.NominalLoad()
	fs := simfs.New(e, fscfg, root.Derive("fs"))

	rt := darshan.NewRuntime(darshan.Config{
		JobID: 1, UID: 99066, Exe: "/projects/hacc/hacc-io", DXT: true,
	}, 0)

	// Same two-level topology as Run, but every hop is a faults.Link the
	// controller can partition, slow down or stall.
	ctl := faults.NewController(e)
	head := ldms.NewAggregator("agg-head", m.Head().Name)
	remote := ldms.NewAggregator("agg-remote", "shirley")
	uplink := faults.NewLink(e, head.Daemon, remote.Daemon, connector.DefaultTag, 300*time.Microsecond)
	uplink.SetReplayTail(chaosReplayTail)
	ctl.RegisterLink("uplink", uplink)
	allLinks := []*faults.Link{uplink}
	nodeDaemons := map[string]*ldms.Daemon{}
	for _, n := range m.Nodes() {
		d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
		d.AddSampler(ldms.NewMeminfoSampler(64<<20, root.DeriveN("meminfo", n.Index)))
		nodeDaemons[n.Name] = d
		l := faults.NewLink(e, d, head.Daemon, connector.DefaultTag, 150*time.Microsecond)
		ctl.RegisterLink("node-"+n.Name, l)
		allLinks = append(allLinks, l)
	}
	// Crashing the head aggregator cuts every link that touches it.
	crash, restart := faults.CrashDaemon(allLinks...)
	ctl.RegisterCrash("head", crash, restart)

	// Store path: counting store behind flaky injection behind the opt-in
	// retry layer (so StoreFault windows exercise retry-with-timeout),
	// behind the dedup layer (so replay-outage heals don't double count).
	count := &ldms.CountStore{}
	flaky := faults.NewFlakyStore(count, root.Derive("storefault"), storeFailProb)
	retry := ldms.NewRetryStore(flaky, ldms.RetryConfig{Attempts: 4})
	dedup := ldms.NewDedupStore(retry)
	storeHandle := remote.AttachStore(connector.DefaultTag, dedup)
	ctl.RegisterToggle("store", flaky.SetActive)

	conn := connector.Attach(rt, connector.Config{
		Encoder:        jsonmsg.FastEncoder{},
		Meta:           jsonmsg.JobMeta{UID: 99066, JobID: 1, Exe: "/projects/hacc/hacc-io"},
		ChargeOverhead: true,
	}, func(producer string) *ldms.Daemon { return nodeDaemons[producer] })

	// Telemetry mirrors the chaos soak: per-run registry, snapshot in
	// the report, hop stamps on the engine's virtual clock.
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
	reg.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_store_count_messages_total", float64(count.Count()))
	})

	if err := ctl.Apply(profile); err != nil {
		return nil, err
	}

	hacc := apps.DefaultHACCIO(m.Nodes()[:16], scaleInt64(cfg.particlesPerRank, cfg.scale))
	apps.RunHACCIO(apps.Env{E: e, M: m, FS: fs, RT: rt}, hacc)
	if err := e.Run(0); err != nil {
		return nil, err
	}
	runtime := e.Now()
	if err := e.Drain(runtime + time.Second); err != nil {
		return nil, err
	}

	res := &FaultRunResult{
		Profile:   profile.Name,
		Runtime:   runtime,
		Published: conn.Stats().Published,
		Delivered: count.Count(),
		Log:       ctl.Log(),
	}
	for _, l := range allLinks {
		st := l.Stats()
		res.Dropped += st.Dropped
		res.Recovered += st.Recovered
		res.Duplicated += st.Duplicated
	}
	res.Deduped = dedup.Duplicates()
	retries, failures, _ := retry.Stats()
	res.StoreRetries = retries
	res.StoreDrops = failures
	res.Dropped += failures
	res.Obs = reg.Snapshot()
	_ = storeHandle
	return res, nil
}

// DefaultFaultProfiles builds the standard campaign scenarios scaled to the
// measured fault-free runtime: a head-aggregator crash with restart, an
// uplink partition, a slow subscriber stall on the uplink, a latency spike,
// a flaky-store window behind the retry layer, and a replay-outage on the
// uplink (an at-least-once reconnect whose re-sent tail the dedup layer
// must absorb).
func DefaultFaultProfiles(runtime time.Duration) []faults.Profile {
	frac := func(f float64) time.Duration {
		return time.Duration(float64(runtime) * f)
	}
	return []faults.Profile{
		{Name: "daemon-crash", Events: []faults.Event{
			{Kind: faults.DaemonCrash, Target: "head", At: frac(0.30), Duration: frac(0.20)},
		}},
		{Name: "link-partition", Events: []faults.Event{
			{Kind: faults.LinkPartition, Target: "uplink", At: frac(0.25), Duration: frac(0.25)},
		}},
		{Name: "slow-subscriber", Events: []faults.Event{
			{Kind: faults.SlowSubscriber, Target: "uplink", At: frac(0.25), Duration: frac(0.40)},
		}},
		{Name: "latency-spike", Events: []faults.Event{
			{Kind: faults.LatencySpike, Target: "uplink", At: frac(0.20), Duration: frac(0.50), Extra: 20 * time.Millisecond},
		}},
		{Name: "flaky-store", Events: []faults.Event{
			{Kind: faults.StoreFault, Target: "store", At: frac(0.20), Duration: frac(0.50)},
		}},
		{Name: "replay-outage", Events: []faults.Event{
			{Kind: faults.ReplayOutage, Target: "uplink", At: frac(0.30), Duration: frac(0.25)},
		}},
	}
}

// FaultCampaign measures a fault-free baseline of the HACC-IO pipeline,
// derives the default profiles from its runtime, and reruns the pipeline
// under each. Everything runs in virtual time from the one seed, so the
// whole campaign is deterministic.
func FaultCampaign(seed uint64, scale float64, particlesPerRank int64, fsKind simfs.Kind) (*FaultCampaignResult, error) {
	cfg := faultRunConfig{seed: seed, scale: scale, particlesPerRank: particlesPerRank, fsKind: fsKind}
	baseline, err := runUnderFaults(cfg, faults.Profile{Name: "baseline"})
	if err != nil {
		return nil, err
	}
	out := &FaultCampaignResult{
		Label:    fmt.Sprintf("HACC-IO %s %dM", fsKind, particlesPerRank/1_000_000),
		Seed:     seed,
		Baseline: *baseline,
	}
	for _, p := range DefaultFaultProfiles(baseline.Runtime) {
		r, err := runUnderFaults(cfg, p)
		if err != nil {
			return nil, err
		}
		out.Runs = append(out.Runs, *r)
	}
	return out, nil
}

// RenderFaultCampaign formats the campaign as a delivered/dropped/recovered
// summary table plus each run's fault log.
func RenderFaultCampaign(c *FaultCampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault campaign: %s (seed %d, baseline runtime %.3fs)\n", c.Label, c.Seed, c.Baseline.Runtime.Seconds())
	fmt.Fprintf(&b, "%-16s %10s %10s %9s %10s %11s %8s %8s %7s\n",
		"profile", "published", "delivered", "dropped", "recovered", "duplicated", "deduped", "retries", "loss%")
	row := func(r FaultRunResult) {
		loss := 0.0
		if r.Published > 0 {
			loss = 100 * float64(r.Dropped) / float64(r.Published)
		}
		fmt.Fprintf(&b, "%-16s %10d %10d %9d %10d %11d %8d %8d %6.2f%%\n",
			r.Profile, r.Published, r.Delivered, r.Dropped, r.Recovered, r.Duplicated, r.Deduped, r.StoreRetries, loss)
	}
	row(c.Baseline)
	for _, r := range c.Runs {
		row(r)
	}
	for _, r := range c.Runs {
		if len(r.Log) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s fault log:\n", r.Profile)
		for _, rec := range r.Log {
			fmt.Fprintf(&b, "  %s\n", rec)
		}
	}
	renderObsSection(&b, "pipeline stage snapshot (baseline run):", c.Baseline.Obs)
	return b.String()
}
