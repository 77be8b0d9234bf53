// dlc-web serves the Grafana-style run-time I/O dashboard. By default it
// first runs a small simulated campaign (MPI-IO-TEST, NFS, independent,
// with the job-2 congestion anomaly) so there is data to browse; with
// -snapshot it serves data previously stored by dsosd instead.
//
// Usage:
//
//	dlc-web [-addr :8080] [-snapshot darshan_data.sos] [-scale 0.2] [-jobs 5]
//	dlc-web -replay 60     # stream the campaign into the dashboard at 60x
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/dsos"
	"darshanldms/internal/harness"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/replay"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/webui"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	snapshot := flag.String("snapshot", "", "serve a dsosd snapshot instead of running the demo campaign")
	scale := flag.Float64("scale", 0.2, "demo campaign scale")
	jobs := flag.Int("jobs", 5, "demo campaign job count")
	seed := flag.Uint64("seed", 2022, "demo campaign seed")
	replaySpeed := flag.Float64("replay", 0, "replay the data into the live dashboard at this speedup (0 = serve statically)")
	flag.Parse()

	var client *dsos.Client
	if *snapshot != "" {
		f, err := os.Open(*snapshot)
		if err != nil {
			fatal(err)
		}
		cont, err := sos.Restore(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cluster := dsos.NewClusterFromContainers([]*sos.Container{cont})
		client = dsos.Connect(cluster)
		fmt.Fprintf(os.Stderr, "dlc-web: serving snapshot %s (%d events)\n", *snapshot, client.Count(dsos.DarshanSchemaName))
	} else {
		fmt.Fprintf(os.Stderr, "dlc-web: running demo campaign (%d jobs, scale %.2f)...\n", *jobs, *scale)
		camp, err := harness.MPIIOFigureCampaign(*seed, *jobs, *scale)
		if err != nil {
			fatal(err)
		}
		client = camp.Client
		fmt.Fprintf(os.Stderr, "dlc-web: campaign stored %d events across %d jobs\n",
			client.Count(dsos.DarshanSchemaName), len(camp.JobIDs))
	}

	// Pipeline telemetry behind the dashboard's health panel and /metrics.
	reg := obs.NewRegistry()
	clock := obs.WallClock()
	ldms.CollectPools(reg)
	var webStreams []*streams.DurableStream

	if *replaySpeed > 0 {
		// Serve a fresh store and stream the recorded campaign into it at
		// the requested speedup: the dashboard fills in as the jobs "run".
		src := client
		serveCluster := dsos.NewCluster(4, "darshan_data")
		if err := dsos.SetupDarshan(serveCluster); err != nil {
			fatal(err)
		}
		client = dsos.Connect(serveCluster)
		ingest := ldms.NewDaemon("web-ingest", "dashboard")
		dstore := ldms.NewDSOSStore(client)
		serveCluster.Instrument(reg, clock)
		dstore.Instrument(reg)
		ingest.Bus().Collect(reg, "web-ingest")
		// Stage the replay through a durable stream with a consumer-acked
		// ingest loop — ldms.IngestStream, the loop dsosd -stream runs — so the
		// dashboard's consumer-lag panel watches a real pipeline: the
		// stream head advances with the replay and the ingest consumer's
		// floor chases it.
		stream, err := streams.OpenStream(streams.StreamConfig{
			Name:      "web-ingest",
			Subjects:  []string{connector.DefaultTag},
			Retention: streams.RetentionPolicy{MaxMsgs: 100000},
			Clock:     clock,
		}, sos.NewMemWAL())
		if err != nil {
			fatal(err)
		}
		if err := ingest.Bus().BindStream(stream); err != nil {
			fatal(err)
		}
		cons, err := stream.Consumer(streams.ConsumerConfig{Name: "ingest"})
		if err != nil {
			fatal(err)
		}
		deduped := ldms.NewDedupStore(dstore)
		go func() {
			err := ldms.IngestStream(cons, deduped, func(err error) {
				fmt.Fprintln(os.Stderr, "dlc-web: ingest:", err)
			})
			if err != nil {
				fatal(fmt.Errorf("ingest stopped: %w", err))
			}
		}()
		stream.Collect(reg)
		webStreams = append(webStreams, stream)
		go func() {
			jobIDs, err := src.DistinctJobs()
			if err != nil {
				fmt.Fprintln(os.Stderr, "dlc-web: replay:", err)
				return
			}
			for _, j := range jobIDs {
				st, err := replay.Job(context.Background(), src, j, ingest.Bus(),
					replay.Options{Speedup: *replaySpeed})
				if err != nil {
					fmt.Fprintln(os.Stderr, "dlc-web: replay:", err)
					return
				}
				fmt.Fprintf(os.Stderr, "dlc-web: replayed job %d (%d events, %.1fs span) in %s\n",
					j, st.Events, st.Span, st.Duration.Round(time.Millisecond))
			}
		}()
	}

	srv := webui.NewServer(client, nil)
	srv.AttachObs(reg)
	srv.AttachStreams(webStreams...)
	fmt.Fprintf(os.Stderr, "dlc-web: dashboard at http://localhost%s/ (pipeline health on / and /metrics)\n", *addr)
	if err := http.ListenAndServe(*addr, srv); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlc-web:", err)
	os.Exit(1)
}
