package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/faults"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/replay"
	"darshanldms/internal/rng"
	"darshanldms/internal/scenario"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
)

// The scenario campaign executes declarative scenarios (internal/scenario)
// through the full connector→streams→ldms→dsos pipeline: a seeded plan of
// timed job launches runs on a spec-sized cluster with per-used-node LDMS
// daemons, fault-injectable hops (or a rate-limited uplink), and both a
// counting store and DSOS retention behind the remote aggregator. Reports
// are byte-stable — everything runs in virtual time from the one seed.

// scenarioUID is the synthetic job owner in scenario runs.
const scenarioUID = 99066

// ScenarioJobResult is one job's outcome.
type ScenarioJobResult struct {
	ID     int64
	Kind   string
	StartS float64
	Ranks  int
	Events int64
	Reads  int64
	Writes int64
	ReadS  float64 // summed read time, seconds
	WriteS float64 // summed write time, seconds
}

// MeanOpMS is the job's mean read/write duration in milliseconds.
func (j *ScenarioJobResult) MeanOpMS() float64 {
	if ops := j.Reads + j.Writes; ops > 0 {
		return (j.ReadS + j.WriteS) / float64(ops) * 1e3
	}
	return 0
}

// ScenarioResult is one executed scenario.
type ScenarioResult struct {
	Name            string
	Seed            uint64
	ClusterNodes    int
	UsedNodes       int
	FS              string
	ArrivalKind     string
	Runtime         time.Duration
	Events          int64
	Published       uint64 // connector messages published on node buses
	Delivered       uint64 // messages that reached the final store
	LinkDropped     uint64 // lost on fault-injectable hops
	UplinkForwarded uint64 // rate-limited uplink only
	UplinkShed      uint64 // rate-limited uplink token-bucket drops
	Stored          int    // rows retained in DSOS
	Jobs            []ScenarioJobResult
	FaultLog        []faults.Record
	Anomalies       []string
}

// Dropped is the scenario's total message loss.
func (r *ScenarioResult) Dropped() uint64 { return r.LinkDropped + r.UplinkShed }

// ScenarioCampaignResult is a full curated-suite campaign.
type ScenarioCampaignResult struct {
	Seed    uint64
	Results []*ScenarioResult
}

// RunScenarioSpec plans and executes one validated scenario under the
// campaign seed.
func RunScenarioSpec(spec *scenario.Spec, campaignSeed uint64) (*ScenarioResult, error) {
	plan := scenario.BuildPlan(spec, campaignSeed)

	// Resolve every replay trace up front so a bad trace fails fast.
	traces := map[string]*replay.Trace{}
	for _, j := range plan.Jobs {
		if j.Kind != scenario.JobReplay {
			continue
		}
		if _, ok := traces[j.Trace]; !ok {
			tr, err := replay.LoadTrace(j.Trace)
			if err != nil {
				return nil, err
			}
			traces[j.Trace] = tr
		}
	}

	e := sim.NewEngine()
	defer e.Close()
	ccfg := cluster.Voltrino()
	ccfg.Nodes = spec.Cluster.Nodes
	m := cluster.New(e, ccfg)
	root := rng.New(plan.Seed)

	var fscfg simfs.Config
	if spec.FS == "Lustre" {
		fscfg = simfs.DefaultLustre()
	} else {
		fscfg = simfs.DefaultNFS()
	}
	fscfg.Load = simfs.NominalLoad()
	fs := simfs.New(e, fscfg, root.Derive("fs"))

	ctl := faults.NewController(e)
	head := ldms.NewAggregator("agg-head", m.Head().Name)
	remote := ldms.NewAggregator("agg-remote", "shirley")

	nodeLat := scenarioLatency(spec.Pipeline.NodeLatencyUS, 150*time.Microsecond)
	upLat := scenarioLatency(spec.Pipeline.UplinkLatencyUS, 300*time.Microsecond)

	var uplinkStats *ldms.RelayStats
	var allLinks []*faults.Link
	if rate := spec.Pipeline.UplinkRatePerS; rate > 0 {
		_, st, err := ldms.RateLimitedRelay(e, head.Daemon, remote.Daemon, connector.DefaultTag, upLat, rate)
		if err != nil {
			return nil, err
		}
		uplinkStats = st
	} else {
		uplink := faults.NewLink(e, head.Daemon, remote.Daemon, connector.DefaultTag, upLat)
		ctl.RegisterLink("uplink", uplink)
		allLinks = append(allLinks, uplink)
	}

	daemons := map[string]*ldms.Daemon{}
	for _, idx := range plan.UsedNodes {
		n := m.Node(idx)
		d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
		daemons[n.Name] = d
		l := faults.NewLink(e, d, head.Daemon, connector.DefaultTag, nodeLat)
		ctl.RegisterLink("node-"+strconv.Itoa(idx), l)
		allLinks = append(allLinks, l)
	}
	crash, restart := faults.CrashDaemon(allLinks...)
	ctl.RegisterCrash("head", crash, restart)

	count := &ldms.CountStore{}
	remote.AttachStore(connector.DefaultTag, count)
	dc := dsos.NewCluster(2, "darshan_data")
	if err := dsos.SetupDarshan(dc); err != nil {
		return nil, err
	}
	client := dsos.Connect(dc)
	remote.AttachStore(connector.DefaultTag, ldms.NewDSOSStore(client))

	if err := ctl.Apply(plan.Faults); err != nil {
		return nil, err
	}

	type jobState struct {
		rt    *darshan.Runtime
		conn  *connector.Connector
		ranks int
	}
	states := make([]*jobState, len(plan.Jobs))
	daemonOf := func(producer string) *ldms.Daemon { return daemons[producer] }

	for i := range plan.Jobs {
		i := i
		job := plan.Jobs[i]
		e.At(job.Start, func() {
			exe := "scenario/" + job.Kind
			rt := darshan.NewRuntime(darshan.Config{
				JobID: job.ID, UID: scenarioUID, Exe: exe, DXT: true,
			}, e.Now())
			conn := connector.Attach(rt, connector.Config{
				Encoder:        jsonmsg.FastEncoder{},
				Meta:           jsonmsg.JobMeta{UID: scenarioUID, JobID: job.ID, Exe: exe},
				ChargeOverhead: true,
			}, daemonOf)
			nodes := make([]*cluster.Node, len(job.NodeIndexes))
			for k, idx := range job.NodeIndexes {
				nodes[k] = m.Node(idx)
			}
			st := &jobState{rt: rt, conn: conn, ranks: job.Ranks()}
			if job.Kind == scenario.JobReplay {
				st.ranks = traces[job.Trace].Ranks()
			}
			states[i] = st
			runScenarioJob(apps.Env{E: e, M: m, FS: fs, RT: rt}, &job, nodes, traces)
		})
	}

	// The engine stops as soon as no worker procs remain, even with At
	// events still queued; an anchor proc sleeping to the last arrival
	// keeps the run alive across gaps in the arrival process.
	if n := len(plan.Jobs); n > 0 {
		last := plan.Jobs[n-1].Start
		e.Spawn("scenario-anchor", func(p *sim.Proc) { p.Sleep(last) })
	}
	if err := e.Run(0); err != nil {
		return nil, err
	}
	runtime := e.Now()
	if err := e.Drain(runtime + time.Second); err != nil {
		return nil, err
	}

	res := &ScenarioResult{
		Name:         spec.Name,
		Seed:         plan.Seed,
		ClusterNodes: spec.Cluster.Nodes,
		UsedNodes:    len(plan.UsedNodes),
		FS:           spec.FS,
		ArrivalKind:  spec.Arrival.Kind,
		Runtime:      runtime,
		Delivered:    count.Count(),
		FaultLog:     ctl.Log(),
		Stored:       storedRows(client),
	}
	for _, l := range allLinks {
		res.LinkDropped += l.Stats().Dropped
	}
	if uplinkStats != nil {
		res.UplinkForwarded = uplinkStats.Forwarded
		res.UplinkShed = uplinkStats.Dropped
	}
	for i, st := range states {
		if st == nil {
			continue
		}
		job := plan.Jobs[i]
		jr := ScenarioJobResult{
			ID:     job.ID,
			Kind:   job.Kind,
			StartS: job.Start.Seconds(),
			Ranks:  st.ranks,
			Events: st.rt.EventCount(),
		}
		for _, rec := range st.rt.Finalize(runtime, st.ranks).Records {
			jr.Reads += rec.Reads
			jr.Writes += rec.Writes
			jr.ReadS += rec.ReadTime.Seconds()
			jr.WriteS += rec.WriteTime.Seconds()
		}
		res.Events += jr.Events
		res.Published += st.conn.Stats().Published
		res.Jobs = append(res.Jobs, jr)
	}
	res.Anomalies = detectScenarioAnomalies(res.Jobs, func(i int) *darshan.Runtime {
		if states[i] == nil {
			return nil
		}
		return states[i].rt
	}, runtime)
	return res, nil
}

// scenarioLatency converts a spec latency (µs) with default.
func scenarioLatency(us float64, def time.Duration) time.Duration {
	if us <= 0 {
		return def
	}
	return time.Duration(us * float64(time.Microsecond))
}

// storedRows counts the rows the DSOS cluster retained.
func storedRows(c *dsos.Client) int {
	objs, err := c.Query("job_time_rank", nil, nil)
	if err != nil {
		return 0
	}
	return len(objs)
}

// runScenarioJob dispatches a planned job to its workload generator. Every
// job gets a unique file namespace so concurrent jobs never share handles
// by accident (shared contention comes from the file system model, not
// path collisions).
func runScenarioJob(env apps.Env, job *scenario.PlannedJob, nodes []*cluster.Node, traces map[string]*replay.Trace) {
	prefix := fmt.Sprintf("%s/scenario/job-%d", env.FS.Mount(), job.ID)
	switch job.Kind {
	case scenario.JobCheckpoint:
		parts := job.BytesPerRank / apps.BytesPerParticle
		if parts < 1 {
			parts = 1
		}
		apps.RunHACCIO(env, apps.HACCIOConfig{
			Nodes: nodes, RanksPerNode: job.RanksPerNode,
			ParticlesPerRank: parts, Mode: "posix",
			FileName: prefix + "-ckpt.dat",
		})
	case scenario.JobSharedFile:
		apps.RunMPIIOTest(env, apps.MPIIOTestConfig{
			Nodes: nodes, RanksPerNode: job.RanksPerNode,
			BlockSize: job.BlockBytes, Iterations: job.Iterations,
			Collective: true, ReadBackIterations: 1,
			FileName: prefix + "-shared.dat",
		})
	case scenario.JobMetaStorm:
		apps.RunMetaStorm(env, apps.MetaStormConfig{
			Nodes: nodes, RanksPerNode: job.RanksPerNode,
			FilesPerRank: job.FilesPerRank, FileBytes: job.FileBytes,
			Dir: prefix,
		})
	case scenario.JobSmallFile:
		apps.RunSmallFiles(env, apps.SmallFilesConfig{
			Nodes: nodes, RanksPerNode: job.RanksPerNode,
			FilesPerRank: job.FilesPerRank, FileBytes: job.FileBytes,
			Dir: prefix,
		})
	case scenario.JobReplay:
		replay.RunTrace(env, replay.TraceConfig{
			Nodes: nodes, Trace: traces[job.Trace],
			Speedup: job.Speedup, Dir: prefix,
		})
	}
}

// detectScenarioAnomalies flags two diagnosis targets, mirroring the
// paper's run-time use case: a job whose mean op duration is 3x its kind's
// median (cross-job contention victim), and a rank inside a job 3x slower
// than the job's median rank (straggler — what DXT replay carries).
func detectScenarioAnomalies(jobs []ScenarioJobResult, rtOf func(int) *darshan.Runtime, end time.Duration) []string {
	var out []string

	// Cross-job, within kind.
	byKind := map[string][]int{}
	for i, j := range jobs {
		if j.Reads+j.Writes > 0 {
			byKind[j.Kind] = append(byKind[j.Kind], i)
		}
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		idxs := byKind[kind]
		if len(idxs) < 3 {
			continue
		}
		means := make([]float64, len(idxs))
		for i, ji := range idxs {
			means[i] = jobs[ji].MeanOpMS()
		}
		med := medianOf(means)
		if med <= 0 {
			continue
		}
		for _, ji := range idxs {
			if m := jobs[ji].MeanOpMS(); m > 3*med {
				out = append(out, fmt.Sprintf("job %d (%s): mean op %.3fms is %.1fx the %s median %.3fms",
					jobs[ji].ID, kind, m, m/med, kind, med))
			}
		}
	}

	// Per-rank stragglers, within job.
	for i, j := range jobs {
		rt := rtOf(i)
		if rt == nil || j.Ranks < 4 {
			continue
		}
		type acc struct {
			ops int64
			dur float64
		}
		perRank := map[int]*acc{}
		for _, rec := range rt.Finalize(end, j.Ranks).Records {
			if rec.Rank < 0 {
				continue
			}
			a := perRank[rec.Rank]
			if a == nil {
				a = &acc{}
				perRank[rec.Rank] = a
			}
			a.ops += rec.Reads + rec.Writes
			a.dur += (rec.ReadTime + rec.WriteTime).Seconds()
		}
		var means []float64
		for r := 0; r < j.Ranks; r++ {
			if a := perRank[r]; a != nil && a.ops > 0 {
				means = append(means, a.dur/float64(a.ops)*1e3)
			}
		}
		if len(means) < 4 {
			continue
		}
		med := medianOf(append([]float64(nil), means...))
		if med <= 0 {
			continue
		}
		for r := 0; r < j.Ranks; r++ {
			a := perRank[r]
			if a == nil || a.ops == 0 {
				continue
			}
			if m := a.dur / float64(a.ops) * 1e3; m > 3*med {
				out = append(out, fmt.Sprintf("job %d (%s) rank %d: mean op %.3fms is %.1fx the job median %.3fms",
					j.ID, j.Kind, r, m, m/med, med))
			}
		}
	}
	return out
}

// medianOf sorts (in place) and returns the median.
func medianOf(v []float64) float64 {
	sort.Float64s(v)
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ScenarioCampaign runs the curated embedded suite under one seed.
func ScenarioCampaign(seed uint64) (*ScenarioCampaignResult, error) {
	out := &ScenarioCampaignResult{Seed: seed}
	for _, spec := range scenario.Suite() {
		r, err := RunScenarioSpec(spec, seed)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// RenderScenarioCampaign formats the campaign: a cross-scenario summary
// table, then each scenario's detail section.
func RenderScenarioCampaign(c *ScenarioCampaignResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Scenario campaign: %d scenarios (seed %d)\n", len(c.Results), c.Seed)
	fmt.Fprintf(&b, "%-24s %5s %6s %8s %10s %10s %8s %8s %9s %10s\n",
		"scenario", "jobs", "nodes", "events", "published", "delivered", "dropped", "shed", "anomalies", "runtime_s")
	for _, r := range c.Results {
		fmt.Fprintf(&b, "%-24s %5d %6d %8d %10d %10d %8d %8d %9d %10.3f\n",
			r.Name, len(r.Jobs), r.UsedNodes, r.Events, r.Published, r.Delivered,
			r.Dropped(), r.UplinkShed, len(r.Anomalies), r.Runtime.Seconds())
	}
	for _, r := range c.Results {
		b.WriteString("\n")
		b.WriteString(RenderScenarioResult(r))
	}
	return b.String()
}

// RenderScenarioResult formats one scenario's detail section.
func RenderScenarioResult(r *ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== scenario %s ==\n", r.Name)
	fmt.Fprintf(&b, "seed %d | %s arrivals | cluster %d nodes (%d used) | fs %s\n",
		r.Seed, r.ArrivalKind, r.ClusterNodes, r.UsedNodes, r.FS)
	fmt.Fprintf(&b, "runtime %.3fs | events %d | published %d | delivered %d | stored %d | link-dropped %d\n",
		r.Runtime.Seconds(), r.Events, r.Published, r.Delivered, r.Stored, r.LinkDropped)
	if r.UplinkForwarded+r.UplinkShed > 0 {
		shedPct := 100 * float64(r.UplinkShed) / float64(r.UplinkForwarded+r.UplinkShed)
		fmt.Fprintf(&b, "rate-limited uplink: forwarded %d, shed %d (%.2f%%)\n",
			r.UplinkForwarded, r.UplinkShed, shedPct)
	}
	fmt.Fprintf(&b, "%5s %-16s %9s %6s %8s %8s %8s %9s %9s\n",
		"job", "kind", "start_s", "ranks", "events", "reads", "writes", "read_s", "write_s")
	for _, j := range r.Jobs {
		fmt.Fprintf(&b, "%5d %-16s %9.3f %6d %8d %8d %8d %9.3f %9.3f\n",
			j.ID, j.Kind, j.StartS, j.Ranks, j.Events, j.Reads, j.Writes, j.ReadS, j.WriteS)
	}
	if len(r.FaultLog) > 0 {
		b.WriteString("fault log:\n")
		for _, rec := range r.FaultLog {
			fmt.Fprintf(&b, "  %s\n", rec)
		}
	}
	if len(r.Anomalies) > 0 {
		b.WriteString("anomalies:\n")
		for _, a := range r.Anomalies {
			fmt.Fprintf(&b, "  %s\n", a)
		}
	}
	return b.String()
}
