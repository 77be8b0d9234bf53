// dlc-run executes one simulated application run and writes its artifacts:
// the binary Darshan log (readable by darshan-parser / darshan-summary)
// and, when the connector is enabled, a CSV of every stream message.
//
// Usage:
//
//	dlc-run -app hacc -fs Lustre -scale 0.1 -log hacc.darshan
//	dlc-run -app hmmer -fs NFS -connector -encoder sprintf -csv events.csv
//	dlc-run -app mpiio -collective -connector -sample-every 10
//	dlc-run -app hacc -connector -forward 127.0.0.1:4411
//
// -forward runs ldmsd -forward's uplink (a 1024-message block window); a
// dead upstream at startup, or a window not drained 5 s after the run, is
// an error.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"darshanldms/internal/apps"
	"darshanldms/internal/darshan"
	"darshanldms/internal/darshanlog"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/rng"
	"darshanldms/internal/sim"
	"darshanldms/internal/simfs"
	"darshanldms/internal/streams"

	"darshanldms/internal/cluster"
	"darshanldms/internal/connector"
)

func main() {
	app := flag.String("app", "hacc", "application: hacc | mpiio | hmmer | sw4")
	fsKind := flag.String("fs", "Lustre", "file system: NFS | Lustre")
	scale := flag.Float64("scale", 0.05, "workload scale (1.0 = paper size)")
	collective := flag.Bool("collective", false, "mpiio: use collective I/O")
	useConn := flag.Bool("connector", false, "attach the Darshan-LDMS connector")
	encoder := flag.String("encoder", "sprintf", "connector encoder: sprintf | fast | none")
	sampleEvery := flag.Int("sample-every", 0, "connector: publish every Nth event")
	logPath := flag.String("log", "", "write the Darshan log here")
	csvPath := flag.String("csv", "", "write connector messages as CSV here")
	forward := flag.String("forward", "", "forward stream messages to a live ldmsd/dsosd (host:port)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	jobID := flag.Int64("job", 100, "job id")
	flag.Parse()

	engine := sim.NewEngine()
	defer engine.Close()
	machine := cluster.New(engine, cluster.Voltrino())
	var fscfg simfs.Config
	switch simfs.Kind(*fsKind) {
	case simfs.NFS:
		fscfg = simfs.DefaultNFS()
	case simfs.Lustre:
		fscfg = simfs.DefaultLustre()
	default:
		fatal(fmt.Errorf("unknown fs %q", *fsKind))
	}
	fs := simfs.New(engine, fscfg, rng.New(*seed).Derive("fs"))

	exe := "/projects/" + *app
	rt := darshan.NewRuntime(darshan.Config{JobID: *jobID, UID: 99066, Exe: exe, DXT: true}, 0)

	var csv *ldms.CSVStore
	var up *ldms.Uplink
	var nranks int
	if *useConn {
		cfg, err := connector.ConfigFromEnv(map[string]string{
			"DARSHAN_LDMS_ENABLE":       "1",
			"DARSHAN_LDMS_ENCODER":      *encoder,
			"DARSHAN_LDMS_SAMPLE_EVERY": sampleStr(*sampleEvery),
		})
		if err != nil {
			fatal(err)
		}
		cfg.Meta = jsonmsg.JobMeta{UID: 99066, JobID: *jobID, Exe: exe}
		daemons := map[string]*ldms.Daemon{}
		agg := ldms.NewDaemon("agg", "head")
		if *csvPath != "" {
			f, err := os.Create(*csvPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			csv = ldms.NewCSVStore(f)
			agg.AttachStore(connector.DefaultTag, csv)
		}
		if *forward != "" {
			// The uplink dials lazily and blocks: probe a dead upstream.
			if err := ldms.PingTCP(*forward, 2*time.Second); err != nil {
				fatal(err)
			}
			if up, _, err = ldms.NewForward(agg, connector.DefaultTag, 1024, streams.Block, ldms.UplinkConfig{Addr: *forward}); err != nil {
				fatal(err)
			}
			defer up.Close()
			fmt.Fprintf(os.Stderr, "dlc-run: forwarding stream to %s\n", *forward)
		}
		for _, n := range machine.Nodes() {
			d := ldms.NewDaemon("ldmsd-"+n.Name, n.Name)
			d.Bus().Subscribe(connector.DefaultTag, func(m streams.Message) { agg.Bus().Publish(m) })
			daemons[n.Name] = d
		}
		connector.Attach(rt, cfg, func(p string) *ldms.Daemon { return daemons[p] })
	}

	env := apps.Env{E: engine, M: machine, FS: fs, RT: rt}
	switch *app {
	case "hacc":
		cfg := apps.DefaultHACCIO(machine.Nodes()[:16], int64(float64(5_000_000)**scale)+1)
		nranks = cfg.Ranks()
		apps.RunHACCIO(env, cfg)
	case "mpiio":
		cfg := apps.DefaultMPIIOTest(machine.Nodes()[:22], *collective)
		cfg.Iterations = max(1, int(10**scale))
		cfg.ReadBackIterations = max(1, int(2**scale))
		nranks = cfg.Ranks()
		apps.RunMPIIOTest(env, cfg)
	case "hmmer":
		cfg := apps.DefaultHMMER(machine.Node(0), simfs.Kind(*fsKind))
		cfg.Families = max(1, int(float64(apps.PfamASeedFamilies)**scale))
		nranks = cfg.Ranks
		apps.RunHMMER(env, cfg)
	case "sw4":
		cfg := apps.DefaultSW4(machine.Nodes()[:8])
		cfg.Steps = max(1, int(20**scale))
		nranks = cfg.Ranks()
		apps.RunSW4(env, cfg)
	default:
		fatal(fmt.Errorf("unknown app %q", *app))
	}

	if err := engine.Run(0); err != nil {
		fatal(err)
	}
	if csv != nil {
		if err := csv.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "dlc-run: %s on %s finished in %.2f virtual seconds, %d events\n",
		*app, *fsKind, engine.Seconds(), rt.EventCount())
	if up != nil {
		if err := up.Flush(5 * time.Second); err != nil {
			fatal(fmt.Errorf("%d messages unsent to %s: %w", up.Stats().Consumer.Lag, *forward, err))
		}
	}

	if *logPath != "" {
		sum := rt.Finalize(engine.Now(), nranks)
		var dxt []darshan.DXTTrace
		if rt.DXT() != nil {
			dxt = rt.DXT().Export()
		}
		f, err := os.Create(*logPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := darshanlog.Write(f, sum, dxt); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "dlc-run: wrote darshan log %s (%d records)\n", *logPath, len(sum.Records))
	}
}

func sampleStr(n int) string {
	if n <= 0 {
		return ""
	}
	return fmt.Sprintf("%d", n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dlc-run:", err)
	os.Exit(1)
}
