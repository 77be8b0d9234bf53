// haccio-monitoring: the paper's full pipeline, end to end.
//
// Five HACC-IO jobs run on a simulated 16-node cluster (Lustre). For each
// job, Darshan events flow connector -> node LDMSD -> head-node aggregator
// -> remote-cluster aggregator -> DSOS store, exactly the Voltrino ->
// Shirley topology of Section V-C. Afterwards the analysis modules (the
// Python-modules equivalent) reproduce the Figure 5 and Figure 6 views
// from DSOS queries, and a Darshan log file is written and re-parsed to
// show the classic post-run path next to the run-time one.
//
//	go run ./examples/haccio-monitoring
package main

import (
	"bytes"
	"fmt"

	"darshanldms/internal/analysis"
	"darshanldms/internal/apps"
	"darshanldms/internal/darshanlog"
	"darshanldms/internal/dsos"
	"darshanldms/internal/harness"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/simfs"
	"darshanldms/internal/sos"
)

func main() {
	// Run the retained campaign: 5 jobs, HACC-IO on Lustre with 10M-scale
	// particles (scaled down 100x so the example runs in moments).
	camp, err := harness.HACCFigureCampaign(2022, 5, 0.01, "Lustre", 10_000_000)
	if err != nil {
		panic(err)
	}
	fmt.Printf("campaign %q: %d jobs, %d events in DSOS\n\n",
		camp.Label, len(camp.JobIDs), camp.Client.Count(dsos.DarshanSchemaName))

	// Figure 5 view: mean op occurrences with 95% CI across the jobs.
	ops, err := analysis.OpCounts(camp.Client, camp.JobIDs)
	if err != nil {
		panic(err)
	}
	fmt.Println("mean I/O operation occurrences over the 5 jobs (95% CI):")
	for _, s := range ops {
		fmt.Printf("  %-6s mean=%8.1f ±%6.1f per-job=%v\n", s.Op, s.Mean, s.CI95, s.PerJob)
	}

	// Figure 6 view: per-node open/close requests for two jobs.
	nodes, err := analysis.PerNodeOps(camp.Client, camp.JobIDs[:2], []string{"open", "close"})
	if err != nil {
		panic(err)
	}
	fmt.Println("\nper-node open/close requests (jobs 1 and 2):")
	for _, r := range nodes {
		fmt.Printf("  job %d  %-10s %-6s %4d\n", r.JobID, r.Node, r.Op, r.Count)
	}

	// The paper's query example: one rank of one job over time.
	objs, err := camp.Client.Query("job_rank_time",
		sos.Key{camp.JobIDs[0], int64(3)}, sos.Key{camp.JobIDs[0], int64(4)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("\njob %d rank 3 timeline (job_rank_time index): %d events\n", camp.JobIDs[0], len(objs))
	for _, o := range objs {
		fmt.Printf("  t=%12.3f  %-5s dur=%8.4fs len=%d\n",
			o.Float(jsonmsg.ColSegTimestamp), o.Str(jsonmsg.ColOp),
			o.Float(jsonmsg.ColSegDur), o.Int(jsonmsg.ColSegLen))
	}

	// The post-run path for contrast: write and re-parse a Darshan log.
	res, err := harness.Run(harness.RunOptions{
		Seed: 99, JobID: 999, UID: 99066, Exe: "/projects/hacc/hacc-io",
		FSKind: simfs.Lustre,
		App: func(env apps.Env) {
			apps.RunHACCIO(env, apps.DefaultHACCIO(env.M.Nodes()[:16], 100_000))
		},
	})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := darshanlog.Write(&buf, res.Summary, nil); err != nil {
		panic(err)
	}
	logf, err := darshanlog.Read(&buf)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\npost-run darshan log: job %d, %d records, runtime %.1fs (log size %d bytes)\n",
		logf.JobID, len(logf.Records), (logf.End - logf.Start).Seconds(), buf.Len())
}
