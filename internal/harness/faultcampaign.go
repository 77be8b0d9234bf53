package harness

import (
	"fmt"
	"strings"
	"time"

	"darshanldms/internal/faults"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/simfs"
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

// runUnderFaults executes one HACC-IO job with fault-injectable links and
// the given profile applied. An empty profile is the baseline.
func runUnderFaults(cfg faultRunConfig, profile faults.Profile) (*FaultRunResult, error) {
	// The pipeline's store chain ends in a counting store: StoreFault
	// windows exercise the retries, and dedup keeps replay-outage heals
	// from double counting. The campaign reports counts, not the ledger.
	count := &ldms.CountStore{}
	p := newFaultPipeline(cfg, count, "head")
	defer p.e.Close()
	p.reg.RegisterCollector(func(emit func(string, float64)) {
		emit("dlc_store_count_messages_total", float64(count.Count()))
	})
	if err := p.ctl.Apply(profile); err != nil {
		return nil, err
	}
	runtime, err := p.runJob()
	if err != nil {
		return nil, err
	}

	res := &FaultRunResult{
		Profile:   profile.Name,
		Runtime:   runtime,
		Published: p.conn.Stats().Published,
		Delivered: count.Count(),
		Log:       p.ctl.Log(),
		Deduped:   p.dedup.Duplicates(),
	}
	res.Dropped, res.Recovered, res.Duplicated = p.linkStats()
	retries, failures, _ := p.retry.Stats()
	res.StoreRetries = retries
	res.StoreDrops = failures
	res.Dropped += failures
	res.Obs = p.reg.Snapshot()
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
		if len(r.Log) > 0 {
			renderRunDetail(&b, r.Profile+" fault log:", nil, nil, r.Log)
		}
	}
	renderObsSection(&b, "pipeline stage snapshot (baseline run):", c.Baseline.Obs)
	return b.String()
}
