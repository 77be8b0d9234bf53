// ldmsd runs a real (non-simulated) LDMS daemon over TCP: it listens for
// stream messages, optionally stores them (CSV or counting), and optionally
// forwards them to a higher-level aggregator — one level of the paper's
// multi-hop topology:
//
//	connector -> node ldmsd -> head aggregator -> remote aggregator+store
//
// Usage:
//
//	ldmsd -listen :4411 [-producer nid00040] [-tag darshanConnector]
//	      [-forward host:4412] [-store-csv out.csv]
//	      [-samplers meminfo,vmstat] [-sample-interval 1s]
//	      [-reconnect] [-spool 1024] [-spool-policy drop-oldest]
//	      [-heartbeat 5s] [-seed 42]
//	      [-batch 32] [-batch-bytes 262144] [-batch-age 5ms]
//	      [-stream ldmsd.stream] [-stream-subjects 'darshan.>']
//	      [-stream-max-msgs 100000] [-stream-max-bytes 0] [-stream-max-age 0]
//	      [-stream-consumer uplink]
//	      [-topo-role node|l1|l2] [-topo-parent host:4412] [-topo-standby host:4413]
//
// -seed pins the sampler RNG so fault campaigns against a real daemon are
// reproducible; with -seed 0 (the default) the seed derives from the wall
// clock and is printed so a run can be replayed after the fact.
//
// By default forwarding is best-effort like LDMS Streams: if the upstream
// aggregator dies, messages are dropped silently. The two reliable
// configurations are one ldms.Uplink — a single link state machine (lazy
// dial, redial with backoff and jitter, -heartbeat liveness probes) — fed
// by one of two sources:
//
//	-reconnect  a bounded in-memory spool (-spool, -spool-policy) off the
//	            daemon's bus. With -batch/-batch-bytes/-batch-age the spool
//	            drains in rounds that cross the wire as batched frames
//	            (count, byte and linger-age flush bounds); typed records
//	            travel in compact binary, never as JSON.
//	-stream     the durable stream itself: every received frame whose
//	            messages match -stream-subjects (comma list, wildcards
//	            allowed; default the -tag) is appended to a CRC-framed
//	            segment file as one binary batch entry — the codec of the
//	            batched wire, a batch frame's payload as it stands — before
//	            best-effort fan-out, retained under the -stream-max-*
//	            bounds, and — when -forward is also set — shipped upstream
//	            through a consumer-acked cursor that survives crashes: the
//	            cursor (named by -stream-consumer) resumes exactly where the
//	            previous incarnation's acks stopped, so an aggregator or
//	            daemon restart costs redelivery, never data. The cursor is
//	            woken by the append and sends rounds of up to 64 messages,
//	            each one batch frame, one ack and one cursor checkpoint;
//	            the -batch* flags do not apply to it. -stream supersedes
//	            -reconnect (the stream is the spool).
//
// -topo-role places the daemon in the explicit aggregation tree of the
// scale-out control plane: node (leaf), l1 or l2 (aggregation levels).
// The role requires -stream (the durable cursor is what makes failover
// exactly-once) and -topo-parent, and conflicts with -forward. With
// -topo-standby the uplink's target set is the parent plus the standby: a
// failure detector probes the active upstream and, after three
// consecutive missed probes, re-homes the link to the other one on the
// same durable consumer — the ack floor survives the switch, so
// re-homing costs redelivery, never data.
//
// Validation is strict: an inconsistent -topo flag set, an unknown
// -spool-policy, or a -batch*, -spool*, -heartbeat or -stream-* flag the
// configuration would ignore is a startup error, never a silent default.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/event"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/rng"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"
)

func main() {
	listen := flag.String("listen", ":4411", "TCP listen address")
	httpAddr := flag.String("http", "", "telemetry HTTP address serving /metrics and /healthz (empty disables)")
	producer := flag.String("producer", hostnameOr("ldmsd"), "producer name")
	tag := flag.String("tag", connector.DefaultTag, "stream tag to handle")
	forward := flag.String("forward", "", "upstream aggregator address (optional)")
	storeCSV := flag.String("store-csv", "", "store messages as CSV to this file (optional)")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval")
	samplers := flag.String("samplers", "", "comma list of sampler plugins to run: meminfo,vmstat")
	sampleEvery := flag.Duration("sample-interval", time.Second, "sampler interval")
	reconnect := flag.Bool("reconnect", false, "resilient forwarding: spool + redial with backoff instead of best-effort")
	spoolSize := flag.Int("spool", 1024, "reconnect spool size in messages")
	spoolPolicy := flag.String("spool-policy", "drop-oldest", "spool overflow policy: drop-oldest, drop-newest or block")
	heartbeat := flag.Duration("heartbeat", 0, "liveness probe interval on the -reconnect or -stream uplink (0 = off)")
	batchRecords := flag.Int("batch", 0, "max records per batched frame of the -reconnect uplink (0 = frame per message)")
	batchBytes := flag.Int("batch-bytes", 0, "max payload bytes per batched uplink frame (0 = unbounded)")
	batchAge := flag.Duration("batch-age", 0, "max linger before a partial batch is flushed (0 = no linger)")
	seed := flag.Uint64("seed", 0, "sampler RNG seed; 0 derives one from the wall clock (nonreproducible)")
	streamPath := flag.String("stream", "", "durable stream segment file; enables persistent, replayable streaming (empty = off)")
	streamSubjects := flag.String("stream-subjects", "", "comma list of subject filters the stream captures (wildcards allowed; default the -tag)")
	streamMaxMsgs := flag.Int("stream-max-msgs", 100000, "stream retention: max retained messages (0 = unbounded)")
	streamMaxBytes := flag.Int64("stream-max-bytes", 0, "stream retention: max retained payload bytes (0 = unbounded)")
	streamMaxAge := flag.Duration("stream-max-age", 0, "stream retention: max retained message age (0 = unbounded)")
	streamConsumer := flag.String("stream-consumer", "uplink", "durable consumer name for the stream uplink cursor")
	topoRole := flag.String("topo-role", "", "aggregation-tree role: node, l1 or l2 (empty = no topology plane)")
	topoParent := flag.String("topo-parent", "", "upstream daemon address for the -topo-role (replaces -forward)")
	topoStandby := flag.String("topo-standby", "", "failover upstream address; probed and switched to when the parent dies")
	flag.Parse()

	// Topology flags are validated strictly: a bad combination is a
	// startup error, never a silent default — a daemon that ignores its
	// topology flags looks healthy while sitting outside the tree.
	topoCfg := topo.Config{Role: *topoRole, Parent: *topoParent, Standby: *topoStandby}
	if err := topoCfg.Validate(); err != nil {
		fatal(err)
	}
	if topoCfg.Enabled() {
		if topoCfg.Role == topo.RoleStoreName {
			fatal(fmt.Errorf("topo: role %q belongs to dsosd, not ldmsd", topoCfg.Role))
		}
		if *forward != "" {
			fatal(fmt.Errorf("topo: -topo-parent and -forward both set; the topology plane owns the uplink"))
		}
		if *streamPath == "" {
			fatal(fmt.Errorf("topo: role %q needs -stream; failover without a durable cursor would lose the ack floor", topoCfg.Role))
		}
	}

	// Uplink flags get the same treatment: a daemon whose flag line says
	// -batch 32 -batch-age 5ms while its uplink is shaped by none of it is
	// as misleading as one sitting outside its tree.
	policy, err := ldms.ParseOverflowPolicy(*spoolPolicy)
	if err != nil {
		fatal(err)
	}
	spooled := *forward != "" && *reconnect && *streamPath == ""
	uplinked := (*forward != "" || topoCfg.Enabled()) && (*reconnect || *streamPath != "")
	flag.Visit(func(f *flag.Flag) {
		switch {
		case strings.HasPrefix(f.Name, "batch") && !spooled:
			fatal(fmt.Errorf("-%s would be ignored: it shapes the rounds of the spooled uplink (-forward with -reconnect, without -stream); the -stream uplink sends its own rounds of up to 64 as batch frames, and the best-effort uplink one frame per message", f.Name))
		case strings.HasPrefix(f.Name, "spool") && !spooled:
			fatal(fmt.Errorf("-%s would be ignored: it bounds the spool of the spooled uplink (-forward with -reconnect, without -stream)", f.Name))
		case f.Name == "heartbeat" && !uplinked:
			fatal(fmt.Errorf("-heartbeat would be ignored: it probes the -reconnect or -stream uplink, and no such uplink is configured"))
		case strings.HasPrefix(f.Name, "stream-") && *streamPath == "":
			fatal(fmt.Errorf("-%s would be ignored: it configures the durable stream, and -stream is not set", f.Name))
		}
	})

	// An interval a ticker would panic on is a startup error too.
	switch {
	case *statsEvery <= 0:
		fatal(fmt.Errorf("-stats %v: the stats interval must be positive", *statsEvery))
	case *samplers != "" && *sampleEvery <= 0:
		fatal(fmt.Errorf("-sample-interval %v: the sampler interval must be positive", *sampleEvery))
	}

	// No handler counts the tag: one would make the bus decode every frame
	// the stream could append as it stands. The count series read what the
	// bus and the receive path keep.
	d := ldms.NewDaemon("ldmsd", *producer)

	var stream *streams.DurableStream
	if *streamPath != "" {
		subjects := []string{*tag}
		if *streamSubjects != "" {
			subjects = subjects[:0]
			for _, s := range strings.Split(*streamSubjects, ",") {
				if s = strings.TrimSpace(s); s != "" {
					subjects = append(subjects, s)
				}
			}
		}
		wal, err := sos.OpenFileWAL(*streamPath)
		if err != nil {
			fatal(err)
		}
		defer wal.Close()
		stream, err = streams.OpenStream(streams.StreamConfig{
			Name:     "ldmsd",
			Subjects: subjects,
			Retention: streams.RetentionPolicy{
				MaxMsgs:  *streamMaxMsgs,
				MaxBytes: *streamMaxBytes,
				MaxAge:   *streamMaxAge,
			},
			Clock: obs.WallClock(),
		}, wal)
		if err != nil {
			fatal(err)
		}
		if err := d.Bus().BindStream(stream); err != nil {
			fatal(err)
		}
		st := stream.Stats()
		fmt.Fprintf(os.Stderr, "ldmsd: durable stream %s (subjects %s): recovered seqs [%d,%d], %d retained, %d dropped\n",
			*streamPath, strings.Join(subjects, ","), st.FirstSeq, st.LastSeq, st.Msgs, st.Dropped)
	}

	if *samplers != "" {
		// An explicit -seed makes real-daemon fault campaigns reproducible:
		// the same seed yields the same sampler noise across runs.
		if *seed == 0 {
			*seed = uint64(time.Now().UnixNano()) //lint:allow walltime -seed 0 explicitly opts into a wall-clock seed
			fmt.Fprintf(os.Stderr, "ldmsd: sampler seed %d (pass -seed %d to reproduce)\n", *seed, *seed)
		}
		r := rng.New(*seed)
		for _, name := range strings.Split(*samplers, ",") {
			switch strings.TrimSpace(name) {
			case "meminfo":
				d.AddSampler(ldms.NewMeminfoSampler(64<<20, r.Derive("meminfo")))
			case "vmstat":
				d.AddSampler(ldms.NewVMStatSampler(r.Derive("vmstat")))
			case "":
			default:
				fatal(fmt.Errorf("unknown sampler %q", name))
			}
		}
		start := time.Now() //lint:allow walltime real daemon: samplers run in wall time
		go func() {
			tick := time.NewTicker(*sampleEvery) //lint:allow walltime real daemon: sampling cadence is wall time
			defer tick.Stop()
			for range tick.C {
				d.SampleOnce(time.Since(start)) //lint:allow walltime real daemon: metric timestamps are wall time
			}
		}()
		fmt.Fprintf(os.Stderr, "ldmsd: sampling %s every %s\n", *samplers, *sampleEvery)
	}

	var csv *ldms.CSVStore
	if *storeCSV != "" {
		f, err := os.Create(*storeCSV)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		csv = ldms.NewCSVStore(f)
		d.AttachStore(*tag, csv)
	}
	// Without -http the registry stays nil and every Collect is a no-op.
	var reg *obs.Registry
	if *httpAddr != "" {
		reg = obs.NewRegistry()
	}
	// One uplink: the source is the stream when there is one, else the
	// -reconnect spool; the target set is -forward, or the topology
	// plane's parent and standby.
	var up *ldms.Uplink
	ucfg := ldms.UplinkConfig{Addr: *forward, HeartbeatEvery: *heartbeat}
	if topoCfg.Enabled() {
		ucfg.Addr, ucfg.Standby = topoCfg.Parent, topoCfg.Standby
	}
	switch {
	case ucfg.Addr == "":
	case stream != nil:
		ucfg.Consumer = *streamConsumer
		if up, err = ldms.NewStreamUplink(stream, ucfg); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ldmsd: stream uplink to %s (consumer %q, floor %d)\n",
			ucfg.Addr, *streamConsumer, up.Stats().Consumer.AckFloor)
	case *reconnect:
		ucfg.Tag, ucfg.SpoolSize, ucfg.Overflow = *tag, *spoolSize, policy
		ucfg.Batch = event.FlushPolicy{MaxRecords: *batchRecords, MaxBytes: *batchBytes, MaxAge: *batchAge}
		if up, err = ldms.NewSpoolUplink(d, ucfg); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ldmsd: resilient forwarding tag %q to %s (spool %d, %s)\n",
			*tag, *forward, *spoolSize, policy)
		if ucfg.Batch.Enabled() {
			fmt.Fprintf(os.Stderr, "ldmsd: batching uplink frames (max %d records, %d bytes, linger %s)\n",
				*batchRecords, *batchBytes, *batchAge)
		}
	default:
		client, err := ldms.DialTCP(*forward)
		if err != nil {
			fatal(err)
		}
		defer client.Close()
		ldms.ForwardTCP(d, *tag, client)
		client.Collect(reg, "uplink")
		fmt.Fprintf(os.Stderr, "ldmsd: forwarding tag %q to %s\n", *tag, *forward)
	}
	if up != nil {
		defer up.Close()
		if topoCfg.Enabled() {
			fmt.Fprintf(os.Stderr, "ldmsd: topo role %q (parent %s, standby %q)\n", topoCfg.Role, topoCfg.Parent, topoCfg.Standby)
		}
	}

	srv, err := ldms.ListenTCP(d, *listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "ldmsd: %s listening on %s (tag %q)\n", *producer, srv.Addr(), *tag)

	if *httpAddr != "" {
		clock := obs.WallClock()
		d.Bus().Instrument("ldmsd", clock)
		d.Bus().Collect(reg, "ldmsd")
		srv.Instrument("tcp:ldmsd", clock)
		srv.Collect(reg, "ldmsd")
		ldms.CollectPools(reg)
		reg.RegisterCollector(func(emit func(string, float64)) {
			emit("dlc_store_count_messages_total", float64(d.Bus().Stats(*tag).Published))
			emit("dlc_store_count_bytes_total", float64(srv.LiteralBytes()))
		})
		health := obs.NewHealth()
		if up != nil {
			up.Collect(reg, "uplink")
			health.Register("uplink", up.Health())
		}
		if stream != nil {
			stream.Collect(reg)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/healthz", health.Handler())
		obs.MountPprof(mux)
		go func() {
			fmt.Fprintf(os.Stderr, "ldmsd: telemetry on %s (/metrics, /healthz)\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "ldmsd: http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*statsEvery) //lint:allow walltime real daemon: stats reporting is wall time
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			line := fmt.Sprintf("ldmsd: received=%d stored-bytes=%d metric-sets=%d", srv.Received(), srv.LiteralBytes(), len(d.Sets()))
			if up != nil {
				st := up.Stats()
				line += fmt.Sprintf(" uplink=%s sent=%d retries=%d dropped=%d spool=%d lag=%d floor=%d switches=%d connected=%v",
					st.Active, st.Sent, st.Retries, st.Dropped, st.SpoolDepth, st.Consumer.Lag, st.Consumer.AckFloor, st.Switches, st.Connected)
			} else if stream != nil {
				st := stream.Stats()
				line += fmt.Sprintf(" stream-msgs=%d stream-dropped=%d", st.Msgs, st.Dropped)
			}
			fmt.Fprintln(os.Stderr, line)
		case <-sig:
			if csv != nil {
				_ = csv.Flush()
			}
			if up != nil {
				// Give the source a chance to drain before exiting; whatever
				// a durable cursor has not acked resumes on the next start.
				_ = up.Flush(5 * time.Second)
			}
			fmt.Fprintf(os.Stderr, "ldmsd: shutting down after %d messages\n", srv.Received())
			return
		}
	}
}

func hostnameOr(def string) string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return def
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ldmsd:", err)
	os.Exit(1)
}
