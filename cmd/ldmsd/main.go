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
//	      [-heartbeat 5s] [-seed 42] [-batch 64] [-batch-age 5ms]
//	      [-stream ldmsd.stream] [-stream-subjects 'darshan.>']
//	      [-stream-max-msgs 100000] [-stream-max-bytes 0] [-stream-max-age 0]
//	      [-stream-consumer uplink]
//	      [-topo-role node|l1|l2] [-topo-parent host:4412] [-topo-standby host:4413]
//
// -seed pins the sampler RNG so fault campaigns against a real daemon are
// reproducible; with -seed 0 (the default) the seed derives from the wall
// clock and is printed so a run can be replayed after the fact.
//
// Every forward is one ldms.Uplink — a single link state machine (lazy
// dial, redial with backoff and jitter, -heartbeat liveness probes) over
// a consumer-acked cursor — reading one of two streams, bound to the
// daemon's bus so that a received batch frame is appended as the body it
// arrived as and relayed upstream as that same body, never decoded. The
// paper's LDMS Streams hop is lossless while the link is up and loses
// everything after the first error, for it never redials; this one holds
// what is unsent and delivers it after the redial:
//
//	-forward    alone: a memory-only stream of the -tag, the window. It
//	            holds only what is unsent — an entry leaves once the
//	            uplink's round is acked — up to 1024 messages; an append to
//	            a full window blocks until an ack makes room, so the sender
//	            waits while the upstream is down. Rounds hold up to 64
//	            messages with no linger. The window dies with the process.
//	-reconnect  the same window, shaped: it holds -spool messages, and
//	            -spool-policy is what an append does to a full one:
//	            drop-oldest (the default) trims the head, drop-newest
//	            refuses an append that does not fit whole, block waits
//	            (all counted in dlc_stream_dropped_total); under the last
//	            two, an empty window takes a larger batch whole. A round
//	            holds up to -batch messages (default 64, at most -spool),
//	            and a partial round waits up to -batch-age to fill.
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
//	            -reconnect (the stream is the spool). Both reject
//	            -batch-bytes: a round forwards stored batches whole, so
//	            only a message count can bound it.
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
// -spool-policy, a -batch*, -spool*, -heartbeat or -stream-* flag the
// configuration would ignore, or a bound or interval that would clamp,
// panic or silently mean "off" is a startup error, never a silent
// default.
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
	reconnect := flag.Bool("reconnect", false, "shape -forward's window with -spool, -spool-policy, -batch and -batch-age (without it: 1024, block, 64, no linger)")
	spoolSize := flag.Int("spool", 1024, "reconnect spool window: max unsent messages held")
	spoolPolicy := flag.String("spool-policy", "drop-oldest", "what an append does to a full spool window: drop-oldest, drop-newest or block")
	heartbeat := flag.Duration("heartbeat", 0, "liveness probe interval on the -reconnect or -stream uplink (0 = off)")
	batchRecords := flag.Int("batch", 0, "max messages per round of the -reconnect uplink (0 = 64)")
	flag.Int("batch-bytes", 0, "not supported: rounds forward stored batches whole; bound them with -batch")
	batchAge := flag.Duration("batch-age", 0, "how long a partial round of the -reconnect uplink waits to fill (0 = no linger)")
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
	policy, err := streams.ParseOverflowPolicy(*spoolPolicy)
	if err != nil {
		fatal(err)
	}
	spooled := *forward != "" && *reconnect && *streamPath == ""
	uplinked := (*forward != "" || topoCfg.Enabled()) && (*reconnect || *streamPath != "")
	flag.Visit(func(f *flag.Flag) {
		switch {
		case f.Name == "batch-bytes":
			fatal(fmt.Errorf("-batch-bytes is not supported: the uplink forwards each stored batch whole, as the body it arrived as, so a byte bound cannot cut its rounds; bound a round's messages with -batch"))
		case strings.HasPrefix(f.Name, "batch") && !spooled:
			fatal(fmt.Errorf("-%s would be ignored: it shapes the rounds of the spooled uplink (-forward with -reconnect, without -stream); the -stream uplink sends its own rounds of up to 64 as batch frames, and -forward alone rounds of up to 64 from a 1024-message window", f.Name))
		case strings.HasPrefix(f.Name, "spool") && !spooled:
			fatal(fmt.Errorf("-%s would be ignored: it shapes the window of the spooled uplink (-forward with -reconnect, without -stream); -forward alone holds 1024 messages and blocks", f.Name))
		case f.Name == "heartbeat" && !uplinked:
			fatal(fmt.Errorf("-heartbeat would be ignored: it probes the -reconnect or -stream uplink, and no such uplink is configured"))
		case strings.HasPrefix(f.Name, "stream-") && *streamPath == "":
			fatal(fmt.Errorf("-%s would be ignored: it configures the durable stream, and -stream is not set", f.Name))
		}
	})

	// An interval a ticker would panic on is a startup error too, as is a
	// bound that would clamp or read as "off".
	switch {
	case *statsEvery <= 0:
		fatal(fmt.Errorf("-stats %v: the stats interval must be positive", *statsEvery))
	case *samplers != "" && *sampleEvery <= 0:
		fatal(fmt.Errorf("-sample-interval %v: the sampler interval must be positive", *sampleEvery))
	case *spoolSize <= 0:
		fatal(fmt.Errorf("-spool %d: the spool window must hold at least one message", *spoolSize))
	case *batchRecords < 0:
		fatal(fmt.Errorf("-batch %d: a round holds at least one message (0 = the default 64)", *batchRecords))
	case *batchAge < 0:
		fatal(fmt.Errorf("-batch-age %v: a linger cannot be negative", *batchAge))
	case *streamMaxMsgs < 0:
		fatal(fmt.Errorf("-stream-max-msgs %d: a retention bound cannot be negative (0 = unbounded)", *streamMaxMsgs))
	case *streamMaxBytes < 0:
		fatal(fmt.Errorf("-stream-max-bytes %d: a retention bound cannot be negative (0 = unbounded)", *streamMaxBytes))
	case *streamMaxAge < 0:
		fatal(fmt.Errorf("-stream-max-age %v: a retention bound cannot be negative (0 = unbounded)", *streamMaxAge))
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
	// One uplink over one of two streams: the durable one, else the
	// memory-only window; the target set is -forward, or the topology
	// plane's parent and standby.
	var up *ldms.Uplink
	window := 0 // the memory-only stream's bound, for the health probe
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
	default:
		// Without -reconnect every window flag is rejected above, so only
		// the policy departs from the flag defaults.
		if !*reconnect {
			policy = streams.Block
		}
		window = *spoolSize
		ucfg.BatchSize, ucfg.Linger = *batchRecords, *batchAge
		if up, stream, err = ldms.NewForward(d, *tag, window, policy, ucfg); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ldmsd: forwarding tag %q to %s (window %d, %s)\n", *tag, *forward, window, policy)
	}
	if topoCfg.Enabled() {
		fmt.Fprintf(os.Stderr, "ldmsd: topo role %q (parent %s, standby %q)\n", topoCfg.Role, topoCfg.Parent, topoCfg.Standby)
	}

	srv, err := ldms.ListenTCP(d, *listen)
	if err != nil {
		fatal(err)
	}
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
			health.Register("uplink", up.Health(window))
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
				line += fmt.Sprintf(" uplink=%s sent=%d retries=%d lag=%d floor=%d switches=%d connected=%v",
					st.Active, st.Sent, st.Retries, st.Consumer.Lag, st.Consumer.AckFloor, st.Switches, st.Connected)
			}
			if stream != nil {
				st := stream.Stats()
				line += fmt.Sprintf(" stream-msgs=%d stream-dropped=%d stream-refused=%d", st.Msgs, st.Dropped, st.Refused)
			}
			fmt.Fprintln(os.Stderr, line)
		case <-sig:
			fmt.Fprintf(os.Stderr, "ldmsd: shutting down after %d messages\n", srv.Received())
			// The uplink closes first, refusing (counted) any append parked
			// on a full window, for srv.Close waits on the receives; the CSV
			// store flushes after the last one. What a durable cursor has not
			// acked resumes on the next start.
			if up != nil {
				if err := up.Flush(5 * time.Second); err != nil {
					fmt.Fprintf(os.Stderr, "ldmsd: %d messages unsent: %v\n", up.Stats().Consumer.Lag, err)
				}
				_ = up.Close()
			}
			_ = srv.Close()
			if csv != nil {
				_ = csv.Flush()
			}
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
