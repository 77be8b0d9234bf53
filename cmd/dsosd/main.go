// dsosd runs a storage daemon: it receives connector stream messages over
// the LDMS TCP transport, stores them into one or more SOS container shards
// with the darshan schema and joint indices, and periodically snapshots the
// shards to disk (which dsosql can then query).
//
// With -wal each shard appends every acked insert to a per-shard
// write-ahead log and replays it at startup (truncating any torn tail), so
// a crashed dsosd restarts with its data intact. With -replication R each
// insert is written to R successive shards.
//
// With -stream the receive and store stages are decoupled by a durable
// stream: every received frame is appended to a CRC-framed segment file
// as one binary batch entry before anything else, and a consumer-acked
// ingest loop (ldms.IngestStream) feeds the shards from it, woken by the
// append — acking each message only after its insert succeeded, naking it
// for redelivery otherwise. A dsosd crash anywhere between receive and
// insert then costs redelivery, not data, and a DedupStore absorbs the
// redelivered overlap so the stored sequence stays exactly-once.
//
// With -topo-role store the shards switch from round-robin replica
// groups to consistent-hash placement: the ring (seeded by
// -topo-ring-seed, so every daemon with the same seed and shard set
// agrees on each key's owner) places objects by (producer, job, rank),
// an insert acks only when all R owners stored it, and the shard set
// rebalances live through /topo/grow, /topo/shrink, /topo/cutover and
// /topo/abort on the HTTP API — fenced dual-writes during migration, a
// handoff of the moved keys and an atomic ring swap at cutover, with
// queries merging both owners mid-migration. Either way the shards sit
// behind one DSOS client: the role only selects its placement strategy.
// The -topo flag set is validated strictly; inconsistent flags are a
// startup error, never a silent default.
//
// Usage:
//
//	dsosd -listen :4420 -container darshan_data -snapshot data.sos
//	      [-daemons 4] [-replication 2] [-wal ./wal]
//	      [-snapshot-every 30s] [-tag darshanConnector]
//	      [-stream dsosd.stream] [-stream-consumer ingest]
//	      [-stream-max-msgs 100000]
//	      [-topo-role store] [-topo-ring-seed 42] [-topo-vnodes 64]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"darshanldms/internal/connector"
	"darshanldms/internal/dsos"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/ldms"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
	"darshanldms/internal/topo"
)

func main() {
	listen := flag.String("listen", ":4420", "TCP listen address")
	httpAddr := flag.String("http", "", "HTTP query API address (e.g. :4421; empty disables)")
	container := flag.String("container", "darshan_data", "container name")
	snapshot := flag.String("snapshot", "darshan_data.sos", "snapshot file path (shard i > 0 appends .i)")
	every := flag.Duration("snapshot-every", 30*time.Second, "snapshot interval")
	tag := flag.String("tag", connector.DefaultTag, "stream tag to store")
	daemons := flag.Int("daemons", 1, "DSOS shard count in this process")
	repl := flag.Int("replication", 1, "replication factor R: each insert is written to R successive shards")
	walDir := flag.String("wal", "", "write-ahead log directory (empty disables); shards replay their logs at startup")
	streamPath := flag.String("stream", "", "durable ingest stream segment file; stages received messages before storing (empty = off)")
	streamConsumer := flag.String("stream-consumer", "ingest", "durable consumer name for the ingest cursor")
	streamMaxMsgs := flag.Int("stream-max-msgs", 100000, "ingest stream retention: max retained messages (0 = unbounded)")
	topoRole := flag.String("topo-role", "", `topology role; only "store" applies to dsosd (empty = no topology plane)`)
	topoRingSeed := flag.Uint64("topo-ring-seed", 0, "consistent-hash shard ring seed; same seed + same shards = same placement across restarts")
	topoVNodes := flag.Int("topo-vnodes", 0, "virtual nodes per shard on the hash ring (0 = default)")
	flag.Parse()

	// Topology flags are validated strictly — a misspelled role or a ring
	// flag without the store role is a startup error, never a silent
	// default: a daemon that quietly ignores its placement flags would
	// disagree with the rest of the ring about every key's owner.
	topoCfg := topo.Config{Role: *topoRole, RingSeed: *topoRingSeed, VNodes: *topoVNodes}
	if err := topoCfg.Validate(); err != nil {
		fatal(err)
	}
	if topoCfg.Enabled() && topoCfg.Role != topo.RoleStoreName {
		fatal(fmt.Errorf("topo: role %q belongs to ldmsd; dsosd only takes role %q", topoCfg.Role, topo.RoleStoreName))
	}

	// The DSOS cluster this dsosd owns: one or more container shards.
	cluster := dsos.NewCluster(*daemons, *container)
	if err := dsos.SetupDarshan(cluster); err != nil {
		fatal(err)
	}
	cluster.SetReplication(*repl)
	if *walDir != "" {
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			fatal(err)
		}
		for _, d := range cluster.Daemons() {
			// Replay what the previous incarnation logged (stopping at any
			// torn tail), truncate the tail, then attach the log for new
			// appends. Replay runs before EnableWAL so recovered inserts are
			// not re-appended.
			path := filepath.Join(*walDir, d.Name+".wal")
			fw, err := sos.OpenFileWAL(path)
			if err != nil {
				fatal(err)
			}
			recs, consumed, err := sos.ReplayWAL(fw, func(schema string, obj sos.Object, origin uint64) error {
				return d.InsertOrigin(schema, obj, origin)
			})
			if err != nil {
				fatal(err)
			}
			if err := fw.Reset(consumed); err != nil {
				fatal(err)
			}
			if recs > 0 {
				fmt.Fprintf(os.Stderr, "dsosd: %s recovered %d records from %s\n", d.Name, recs, path)
			}
			d.EnableWAL(fw)
		}
	}
	client := dsos.Connect(cluster)

	// Shard snapshots are keyed by launch index under round-robin
	// placement (shard i > 0 appends .i).
	snapPath := func(i int, _ *dsos.Daemon) string {
		if i == 0 {
			return *snapshot
		}
		return fmt.Sprintf("%s.%d", *snapshot, i)
	}

	// With -topo-role store, the cluster's placement switches from
	// round-robin replica groups to the consistent-hash ring: every insert
	// is placed by its (producer, job, rank) key, acked only when all R
	// owners stored it, and the shard set can grow or shrink live through
	// the /topo admin endpoints (fenced dual-writes, atomic cutover).
	var hc *topo.HashCluster
	if topoCfg.Enabled() {
		shardFactory := func(name string) (*dsos.Daemon, error) {
			nd := dsos.NewDaemon(name, *container)
			if err := nd.AddSchema(dsos.DarshanSchema()); err != nil {
				return nil, err
			}
			for _, spec := range dsos.DarshanIndices() {
				if err := nd.AddIndex(spec); err != nil {
					return nil, err
				}
			}
			if *walDir != "" {
				fw, err := sos.OpenFileWAL(filepath.Join(*walDir, name+".wal"))
				if err != nil {
					return nil, err
				}
				nd.EnableWAL(fw)
			} else {
				nd.EnableWAL(sos.NewMemWAL())
			}
			return nd, nil
		}
		var err error
		hc, err = topo.NewHashCluster(topo.HashConfig{
			Seed:        topoCfg.RingSeed,
			VNodes:      topoCfg.VNodes,
			Replication: *repl,
			Factory:     shardFactory,
		}, cluster)
		if err != nil {
			fatal(err)
		}
		// Hash membership is dynamic (grow/shrink at runtime), so shard
		// snapshots are keyed by member name, not launch index.
		snapPath = func(_ int, d *dsos.Daemon) string {
			return fmt.Sprintf("%s.%s", *snapshot, d.Name)
		}
		fmt.Fprintf(os.Stderr, "dsosd: hash placement over %d shards (ring seed %d, R=%d)\n",
			len(hc.Members()), topoCfg.RingSeed, *repl)
	}

	d := ldms.NewDaemon("dsosd-ingest", "dsosd")
	store := ldms.NewDSOSStore(client)
	var h *ldms.StoreHandle
	var stream *streams.DurableStream
	if *streamPath != "" {
		// Durable staging: received frames hit the segment before any
		// insert, and the ingest loop below consumes with acks. The direct
		// bus->store attachment is skipped so every message takes exactly
		// one path. The DedupStore makes the at-least-once redelivery of
		// naked/unacked messages exactly-once in the shards.
		fw, err := sos.OpenFileWAL(*streamPath)
		if err != nil {
			fatal(err)
		}
		defer fw.Close()
		stream, err = streams.OpenStream(streams.StreamConfig{
			Name:      "dsosd-ingest",
			Subjects:  []string{*tag},
			Retention: streams.RetentionPolicy{MaxMsgs: *streamMaxMsgs},
			Clock:     obs.WallClock(),
		}, fw)
		if err != nil {
			fatal(err)
		}
		if err := d.Bus().BindStream(stream); err != nil {
			fatal(err)
		}
		cons, err := stream.Consumer(streams.ConsumerConfig{Name: *streamConsumer})
		if err != nil {
			fatal(err)
		}
		go ldms.IngestStream(cons, ldms.NewDedupStore(store), func(err error) {
			fmt.Fprintln(os.Stderr, "dsosd: ingest:", err)
		})
		st := stream.Stats()
		fmt.Fprintf(os.Stderr, "dsosd: durable ingest stream %s: recovered seqs [%d,%d], consumer %q at floor %d\n",
			*streamPath, st.FirstSeq, st.LastSeq, *streamConsumer, cons.AckFloor())
	} else {
		h = d.AttachStore(*tag, store)
	}
	srv, err := ldms.ListenTCP(d, *listen)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "dsosd: container %q (%d shards, R=%d, wal=%q) listening on %s\n",
		*container, *daemons, cluster.Replication(), *walDir, srv.Addr())

	snapShard := func(path string, d *dsos.Daemon) {
		// Beside its destination, so the rename never crosses filesystems.
		f, err := os.CreateTemp(filepath.Dir(path), "dsosd-snap-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "dsosd: snapshot:", err)
			return
		}
		name := f.Name()
		err = d.Container().Snapshot(f)
		cerr := f.Close()
		if err != nil || cerr != nil {
			os.Remove(name)
			fmt.Fprintln(os.Stderr, "dsosd: snapshot:", err, cerr)
			return
		}
		if err := os.Rename(name, path); err != nil {
			os.Remove(name)
			fmt.Fprintln(os.Stderr, "dsosd: snapshot:", err)
			return
		}
	}
	snap := func() {
		shards := cluster.Daemons()
		for i, d := range shards {
			snapShard(snapPath(i, d), d)
		}
		stored := uint64(0)
		if h != nil {
			stored = h.Received()
		} else if stream != nil {
			stored = stream.Stats().Appended
		}
		fmt.Fprintf(os.Stderr, "dsosd: snapshot %s (%d shards, %d objects, %d stored)\n",
			*snapshot, len(shards), client.Count(dsos.DarshanSchemaName), stored)
	}

	if *httpAddr != "" {
		// Telemetry: every stage this daemon owns — ingest bus, TCP
		// receive side, buffer pools, DSOS store plugin, per-shard
		// cluster state — plus a cluster-quorum health probe.
		reg := obs.NewRegistry()
		clock := obs.WallClock()
		cluster.Instrument(reg, clock)
		store.Instrument(reg, clock)
		d.Bus().Instrument("dsosd-ingest", clock)
		d.Bus().Collect(reg, "dsosd-ingest")
		srv.Instrument("tcp:dsosd", clock)
		srv.Collect(reg, "dsosd")
		ldms.CollectPools(reg)
		if stream != nil {
			stream.Collect(reg)
		}
		health := obs.NewHealth()
		health.Register("cluster", cluster.ClusterHealth())

		mux := http.NewServeMux()
		mux.Handle("/metrics", obs.Handler(reg))
		mux.Handle("/healthz", health.Handler())
		obs.MountPprof(mux)
		if hc != nil {
			hc.Collect(reg)
			admin := func(fn func(*http.Request) error) http.HandlerFunc {
				return func(w http.ResponseWriter, r *http.Request) {
					if r.Method != http.MethodPost {
						http.Error(w, "POST only", http.StatusMethodNotAllowed)
						return
					}
					if err := fn(r); err != nil {
						http.Error(w, err.Error(), http.StatusConflict)
						return
					}
					fmt.Fprintln(w, "ok")
				}
			}
			shardArg := func(r *http.Request) (string, error) {
				name := r.URL.Query().Get("shard")
				if name == "" {
					return "", fmt.Errorf("missing ?shard=<name>")
				}
				return name, nil
			}
			mux.HandleFunc("/topo/grow", admin(func(r *http.Request) error {
				name, err := shardArg(r)
				if err != nil {
					return err
				}
				return hc.BeginAdd(name)
			}))
			mux.HandleFunc("/topo/shrink", admin(func(r *http.Request) error {
				name, err := shardArg(r)
				if err != nil {
					return err
				}
				return hc.BeginRemove(name)
			}))
			mux.HandleFunc("/topo/cutover", admin(func(*http.Request) error { return hc.Cutover() }))
			mux.HandleFunc("/topo/abort", admin(func(*http.Request) error { return hc.Abort() }))
			mux.HandleFunc("/topo/stats", func(w http.ResponseWriter, r *http.Request) {
				st := hc.Stats()
				fmt.Fprintf(w, "members=%d migrating=%v migrations=%d aborts=%d moved=%d fenced=%d debt=%d\nring: %s\n",
					st.Members, st.Migrating, st.Migrations, st.Aborts, st.Moved, st.FencedWrites, st.Debt,
					strings.Join(hc.Members(), ","))
			})
		}
		mux.HandleFunc("/count", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, client.Count(dsos.DarshanSchemaName))
		})
		mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
			index := r.URL.Query().Get("index")
			if index == "" {
				index = "job_rank_time"
			}
			var from, to sos.Key
			if v := r.URL.Query().Get("job"); v != "" {
				job, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					http.Error(w, "bad job", http.StatusBadRequest)
					return
				}
				from, to = sos.Key{job}, sos.Key{job + 1}
				if rv := r.URL.Query().Get("rank"); rv != "" && index == "job_rank_time" {
					rank, err := strconv.ParseInt(rv, 10, 64)
					if err != nil {
						http.Error(w, "bad rank", http.StatusBadRequest)
						return
					}
					from, to = sos.Key{job, rank}, sos.Key{job, rank + 1}
				}
			}
			limit := 0
			if v := r.URL.Query().Get("limit"); v != "" {
				n, err := strconv.Atoi(v)
				if err != nil || n < 0 {
					http.Error(w, "bad limit", http.StatusBadRequest)
					return
				}
				limit = n
			}
			objs, err := client.Query(index, from, to)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			fmt.Fprintln(w, jsonmsg.CSVHeader)
			for i, o := range objs {
				if limit > 0 && i >= limit {
					break
				}
				for j, v := range o {
					if j > 0 {
						fmt.Fprint(w, ",")
					}
					fmt.Fprint(w, formatValue(v))
				}
				fmt.Fprintln(w)
			}
		})
		go func() {
			fmt.Fprintf(os.Stderr, "dsosd: HTTP query API on %s (/metrics, /healthz)\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "dsosd: http:", err)
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(*every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			snap()
		case <-sig:
			snap()
			fmt.Fprintln(os.Stderr, "dsosd: shutdown")
			return
		}
	}
}

// formatValue renders CSV cells with fixed-point floats (timestamps must
// not degrade to scientific notation).
func formatValue(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'f', 6, 64)
	}
	return fmt.Sprintf("%v", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsosd:", err)
	os.Exit(1)
}
