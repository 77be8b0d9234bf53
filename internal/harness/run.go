// Package harness orchestrates the paper's experiments: it assembles the
// full pipeline for each job run (simulated cluster + file system + Darshan
// runtime + per-node LDMSDs + two-level aggregation + DSOS or counting
// store + the connector), executes repetition campaigns with per-campaign
// load epochs (the Darshan-only baselines ran 1-2 weeks before the
// connector runs), and regenerates every table and figure of the
// evaluation section.
package harness

import (
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
	"darshanldms/internal/darshan"
	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/streams"
)

// RunOptions configures one job execution.
type RunOptions struct {
	Seed   uint64 // run-level noise seed
	JobID  int64
	UID    int
	Exe    string
	FSKind simfs.Kind
	// Load is the campaign epoch profile; nil selects nominal. The profile
	// is copied per run so congestion events can be added safely.
	Load       *simfs.LoadProfile
	Congestion []simfs.CongestionEvent
	// Connector enables the Darshan-LDMS Connector (the dC runs); when
	// false the run is Darshan-only.
	Connector   bool
	Encoder     jsonmsg.Encoder // nil: Sprintf (the paper's implementation)
	SampleEvery int
	// Store is an optional shared DSOS client; events are retained there
	// (figure campaigns). When nil a counting store is used (overhead
	// campaigns need rates, not data).
	Store *dsos.Client
	// App spawns the job's ranks on the environment.
	App func(env apps.Env)
	// RunLimit bounds the virtual runtime (0 = none), a failsafe.
	RunLimit time.Duration
	// SampleFSLoad, when positive, runs an LDMS fsload sampler on the
	// head aggregator at this interval. Nothing reads its samples; the
	// MPI-IO-TEST figure campaign keeps it on because the sampler's
	// process is part of that campaign's seeded event schedule.
	SampleFSLoad time.Duration
	// Telemetry, when non-nil, attaches every pipeline stage of this
	// run to the given obs registry (virtual-clock trace hops included).
	// Instrumentation must not perturb the run: a seeded run's results
	// are bit-identical with or without it.
	Telemetry *obs.Registry
}

// RunResult reports one job execution.
type RunResult struct {
	JobID    int64
	Runtime  time.Duration // virtual wall-clock of the job
	Events   int64         // Darshan-instrumented events
	Messages uint64        // messages received at the final store
	Rate     float64       // messages per virtual second
	Conn     connector.Stats
	Summary  *darshan.Summary
}

// Run executes one job on a fresh simulated machine.
func Run(opts RunOptions) (*RunResult, error) {
	e := sim.NewEngine()
	defer e.Close()
	m := cluster.New(e, cluster.Voltrino())
	root := rng.New(opts.Seed)

	fscfg := fsConfig(opts.FSKind)
	load := simfs.NominalLoad()
	if opts.Load != nil {
		cp := *opts.Load
		load = &cp
	}
	load.Events = append(append([]simfs.CongestionEvent(nil), load.Events...), opts.Congestion...)
	fscfg.Load = load
	fs := simfs.New(e, fscfg, root.Derive("fs"))

	rt := darshan.NewRuntime(darshan.Config{
		JobID: opts.JobID,
		UID:   opts.UID,
		Exe:   opts.Exe,
		DXT:   true,
	}, 0)

	// LDMS topology: one LDMSD per compute node, aggregated at the head
	// node and again at the analysis cluster, where the store attaches.
	nodeDaemons := map[string]*ldms.Daemon{}
	head := ldms.NewAggregator("agg-head", m.Head().Name)
	remote := ldms.NewAggregator("agg-remote", "shirley")
	ldms.Relay(e, head.Daemon, remote.Daemon, connector.DefaultTag, 300*time.Microsecond)
	for _, n := range m.Nodes() {
		d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
		d.AddSampler(ldms.NewMeminfoSampler(64<<20, root.DeriveN("meminfo", n.Index)))
		nodeDaemons[n.Name] = d
		ldms.Relay(e, d, head.Daemon, connector.DefaultTag, 150*time.Microsecond)
	}
	if opts.SampleFSLoad > 0 {
		head.AddSampler(ldms.NewFSLoadSampler(fs))
		head.StartSampling(e, opts.SampleFSLoad)
	}

	count := &ldms.CountStore{}
	var storeHandle *ldms.StoreHandle
	var dstore *ldms.DSOSStore
	if opts.Store != nil {
		dstore = ldms.NewDSOSStore(opts.Store)
		storeHandle = remote.AttachStore(connector.DefaultTag, dstore)
	} else {
		storeHandle = remote.AttachStore(connector.DefaultTag, count)
	}
	_ = storeHandle

	var conn *connector.Connector
	if opts.Connector {
		conn = connector.Attach(rt, connector.Config{
			Encoder:        opts.Encoder,
			SampleEvery:    opts.SampleEvery,
			Meta:           jsonmsg.JobMeta{UID: int64(opts.UID), JobID: opts.JobID, Exe: opts.Exe},
			ChargeOverhead: true,
		}, func(producer string) *ldms.Daemon { return nodeDaemons[producer] })
	}

	// Opt-in telemetry (dlc-experiments -telemetry): same wiring as the
	// always-on chaos-soak registry, against the caller's registry.
	if opts.Telemetry != nil {
		reg := opts.Telemetry
		clock := obs.Clock(e.Now)
		if conn != nil {
			conn.Instrument(reg)
			connector.Collect(reg, []*connector.Connector{conn})
		}
		nodeBuses := make([]*streams.Bus, 0, len(nodeDaemons))
		for _, n := range m.Nodes() {
			nodeBuses = append(nodeBuses, nodeDaemons[n.Name].Bus())
		}
		instrumentBuses(reg, clock, nodeBuses, head.Daemon.Bus(), remote.Daemon.Bus())
		if dstore != nil {
			dstore.Instrument(reg, clock)
		} else {
			reg.RegisterCollector(func(emit func(string, float64)) {
				emit("dlc_store_count_messages_total", float64(count.Count()))
			})
		}
	}

	opts.App(apps.Env{E: e, M: m, FS: fs, RT: rt})
	if err := e.Run(opts.RunLimit); err != nil {
		return nil, err
	}
	runtime := e.Now()
	// Flush stream messages still in flight between aggregation hops.
	if err := e.Drain(runtime + time.Second); err != nil {
		return nil, err
	}

	res := &RunResult{
		JobID:   opts.JobID,
		Runtime: runtime,
		Events:  rt.EventCount(),
	}
	res.Messages = storeHandle.Received()
	if res.Runtime > 0 {
		res.Rate = float64(res.Messages) / res.Runtime.Seconds()
	}
	if conn != nil {
		res.Conn = conn.Stats()
	}
	res.Summary = rt.Finalize(e.Now(), inferNProcs(rt))
	return res, nil
}

// fsConfig is the default configuration of a file system kind.
func fsConfig(kind simfs.Kind) simfs.Config {
	if kind == simfs.Lustre {
		return simfs.DefaultLustre()
	}
	return simfs.DefaultNFS()
}

// inferNProcs derives the world size from the instrumented records (the
// harness does not know each app's rank count directly).
func inferNProcs(rt *darshan.Runtime) int {
	max := -1
	for _, r := range rt.Finalize(0, 0).Records {
		if r.Rank > max {
			max = r.Rank
		}
	}
	return max + 1
}
