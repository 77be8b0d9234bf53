package harness

import (
	"fmt"
	"time"

	"darshanldms/internal/analysis"
	"darshanldms/internal/apps"
	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/rng"
	"darshanldms/internal/simfs"
)

// FigureCampaign is a set of jobs whose connector events were retained in a
// DSOS cluster, ready for the analysis modules (the paper's Grafana path).
type FigureCampaign struct {
	Client *dsos.Client
	JobIDs []int64
	NRanks int
	Label  string
}

// newStore builds a 4-daemon DSOS cluster with the darshan schema.
func newStore() (*dsos.Client, error) {
	cl := dsos.NewCluster(4, "darshan_data")
	if err := dsos.SetupDarshan(cl); err != nil {
		return nil, err
	}
	return dsos.Connect(cl), nil
}

// HACCFigureCampaign runs `jobs` repetitions of one HACC-IO configuration
// with the connector storing to DSOS.
func HACCFigureCampaign(seed uint64, jobs int, scale float64, fsKind simfs.Kind, particlesPerRank int64) (*FigureCampaign, error) {
	client, err := newStore()
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	label := fmt.Sprintf("HACC-IO %s %dM", fsKind, particlesPerRank/1_000_000)
	camp := &FigureCampaign{Client: client, Label: label}
	epoch := simfs.DrawEpoch(root.Derive("epoch"), 0.15)
	var nranks int
	for j := 0; j < jobs; j++ {
		jobID := int64(j + 1)
		_, err := Run(RunOptions{
			Seed:      root.DeriveN("job", j).Uint64(),
			JobID:     jobID,
			UID:       99066,
			Exe:       "/projects/hacc/hacc-io",
			FSKind:    fsKind,
			Load:      repLoad(epoch, root.DeriveN("load", j)),
			Connector: true,
			Encoder:   jsonmsg.FastEncoder{},
			Store:     client,
			App: func(env apps.Env) {
				cfg := apps.DefaultHACCIO(env.M.Nodes()[:16], scaleInt64(particlesPerRank, scale))
				nranks = cfg.Ranks()
				apps.RunHACCIO(env, cfg)
			},
		})
		if err != nil {
			return nil, err
		}
		camp.JobIDs = append(camp.JobIDs, jobID)
	}
	camp.NRanks = nranks
	return camp, nil
}

// MPIIOFigureCampaign runs `jobs` repetitions of the non-collective NFS
// MPI-IO-TEST configuration, with the *second* job executing during a
// file-system congestion window that also defeats the client cache — the
// anomaly visible in Figures 7, 8 and 9 ("job_id 2").
func MPIIOFigureCampaign(seed uint64, jobs int, scale float64) (*FigureCampaign, error) {
	client, err := newStore()
	if err != nil {
		return nil, err
	}
	root := rng.New(seed)
	camp := &FigureCampaign{
		Client: client,
		Label:  "MPI-IO-TEST NFS independent",
	}
	epoch := simfs.DrawEpoch(root.Derive("epoch"), 0.08)
	var nranks int
	for j := 0; j < jobs; j++ {
		jobID := int64(j + 1)
		var congestion []simfs.CongestionEvent
		if jobID == 2 {
			congestion = []simfs.CongestionEvent{{
				Start:         time.Duration(250*scale) * time.Second,
				Factor:        1.5,
				CacheMissProb: 0.25,
			}}
		}
		_, err := Run(RunOptions{
			Seed:         root.DeriveN("job", j).Uint64(),
			JobID:        jobID,
			UID:          99066,
			Exe:          "/projects/darshan/tests/mpi-io-test",
			FSKind:       simfs.NFS,
			Load:         repLoad(epoch, root.DeriveN("load", j)),
			Congestion:   congestion,
			Connector:    true,
			Encoder:      jsonmsg.FastEncoder{},
			Store:        client,
			SampleFSLoad: 5 * time.Second,
			App: func(env apps.Env) {
				cfg := apps.DefaultMPIIOTest(env.M.Nodes()[:22], false)
				cfg.Iterations = scaleInt(10, scale)
				cfg.ReadBackIterations = scaleInt(2, scale)
				nranks = cfg.Ranks()
				apps.RunMPIIOTest(env, cfg)
			},
		})
		if err != nil {
			return nil, err
		}
		camp.JobIDs = append(camp.JobIDs, jobID)
	}
	camp.NRanks = nranks
	return camp, nil
}

// Figure5 regenerates the Fig 5 dataset: per HACC configuration, the mean
// occurrence count of each operation over the campaign's jobs with 95% CI.
func Figure5(seed uint64, jobs int, scale float64) (map[string][]analysis.OpCountStat, error) {
	out := map[string][]analysis.OpCountStat{}
	for _, fsKind := range []simfs.Kind{simfs.NFS, simfs.Lustre} {
		for _, particles := range []int64{5_000_000, 10_000_000} {
			camp, err := HACCFigureCampaign(seed^uint64(particles)^rng.New(seed).Derive(string(fsKind)).Uint64(), jobs, scale, fsKind, particles)
			if err != nil {
				return nil, err
			}
			stats, err := analysis.OpCounts(camp.Client, camp.JobIDs)
			if err != nil {
				return nil, err
			}
			out[camp.Label] = stats
		}
	}
	return out, nil
}

// Figure6 regenerates the Fig 6 dataset: open/close request counts per
// node for two jobs of the HACC-IO Lustre 10M-particles configuration.
func Figure6(seed uint64, scale float64) ([]analysis.NodeOpCount, error) {
	camp, err := HACCFigureCampaign(seed, 2, scale, simfs.Lustre, 10_000_000)
	if err != nil {
		return nil, err
	}
	return analysis.PerNodeOps(camp.Client, camp.JobIDs, []string{"open", "close"})
}

// Figure7 regenerates the Fig 7 dataset from an MPI-IO figure campaign:
// read/write durations per rank per job.
func Figure7(camp *FigureCampaign) ([]analysis.JobOpDuration, error) {
	return analysis.PerRankDurations(camp.Client, camp.JobIDs, camp.NRanks)
}

// Diagnose runs the anomaly detector over a campaign — the automated
// version of spotting Fig 7's job 2.
func Diagnose(camp *FigureCampaign) ([]analysis.Anomaly, error) {
	return analysis.DetectAnomalies(camp.Client, camp.JobIDs, 3)
}

// Figure8 regenerates the Fig 8 dataset: the duration-vs-time scatter of
// the anomalous job (job_id 2).
func Figure8(camp *FigureCampaign) ([]analysis.ScatterPoint, error) {
	return analysis.TimelineScatter(camp.Client, 2)
}

// Figure9 regenerates the Fig 9 dataset: the Grafana-style aggregated byte
// timeline of job_id 2.
func Figure9(camp *FigureCampaign, bins int) ([]analysis.TimelineBin, error) {
	return analysis.BytesTimeline(camp.Client, 2, bins)
}
