package ldms

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"darshanldms/internal/dsos"
	"darshanldms/internal/obs"
	"darshanldms/internal/sos"
	"darshanldms/internal/streams"
)

// These tests mirror the /metrics wiring of cmd/ldmsd and cmd/dsosd and
// pin the acceptance bar: each daemon's endpoint serves at least 30
// distinct series and covers every pipeline stage the daemon owns.

// scrape serves reg through the /metrics handler and returns the body
// as a series-name -> rendered-value map.
func scrape(t *testing.T, reg *obs.Registry) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	series := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
		if line == "" {
			continue
		}
		i := strings.LastIndex(line, " ")
		if i < 0 {
			t.Fatalf("bad exposition line %q", line)
		}
		series[line[:i]] = line[i+1:]
	}
	return series
}

func wantStagePrefixes(t *testing.T, series map[string]string, prefixes []string) {
	t.Helper()
	for _, prefix := range prefixes {
		found := false
		for name := range series {
			if strings.HasPrefix(name, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series on /metrics", prefix)
		}
	}
}

func healthCode(h *obs.Health) int {
	rec := httptest.NewRecorder()
	h.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	return rec.Code
}

func TestLdmsdMetricsEndpointShape(t *testing.T) {
	cases := []struct {
		name string
		// uplink wires the node daemon's uplink like the named ldmsd flag
		// line does and returns it with the stream it reads, if any.
		uplink func(t *testing.T, d *Daemon, addr string) (*Uplink, *streams.DurableStream)
		window int // the flag line's -spool, passed to Health
	}{
		{"-forward", func(t *testing.T, d *Daemon, addr string) (*Uplink, *streams.DurableStream) {
			return spoolUplink(t, d, UplinkConfig{Addr: addr}, 1024, streams.Block)
		}, 1024},
		{"-reconnect", func(t *testing.T, d *Daemon, addr string) (*Uplink, *streams.DurableStream) {
			return spoolUplink(t, d, UplinkConfig{Addr: addr}, 64, streams.DropOldest)
		}, 64},
		{"-stream", func(t *testing.T, d *Daemon, addr string) (*Uplink, *streams.DurableStream) {
			s, err := streams.OpenStream(streams.StreamConfig{
				Name: "ldmsd", Subjects: []string{"darshanConnector"}, Clock: obs.WallClock(),
			}, sos.NewMemWAL())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Bus().BindStream(s); err != nil {
				t.Fatal(err)
			}
			up, err := NewStreamUplink(s, UplinkConfig{Addr: addr})
			if err != nil {
				t.Fatal(err)
			}
			return up, s
		}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Upstream aggregator the uplink forwards to.
			agg := NewDaemon("agg", "head")
			aggSrv, err := ListenTCP(agg, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer aggSrv.Close()

			// The node daemon, wired exactly like `ldmsd -http -forward`
			// with the row's uplink flag.
			d := NewDaemon("ldmsd", "nid00001")
			published := func() uint64 { return d.Bus().Stats("darshanConnector").Published }
			up, stream := tc.uplink(t, d, aggSrv.Addr())
			defer up.Close()
			srv, err := ListenTCP(d, "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			reg := obs.NewRegistry()
			d.Bus().Collect(reg, "ldmsd")
			srv.Collect(reg, "ldmsd")
			CollectPools(reg)
			reg.RegisterCollector(func(emit func(string, float64)) {
				emit("dlc_store_count_messages_total", float64(published()))
				emit("dlc_store_count_bytes_total", float64(srv.LiteralBytes()))
			})
			up.Collect(reg, "uplink")
			health := obs.NewHealth()
			health.Register("uplink", up.Health(tc.window))
			stream.Collect(reg)

			client, err := DialTCP(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer client.Close()
			for i := 0; i < 20; i++ {
				if err := client.Publish(streams.Message{
					Tag: "darshanConnector", Type: streams.TypeJSON, Data: sampleConnectorMessage(),
				}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, "local count", func() bool { return published() == 20 })
			waitFor(t, "uplink delivery", func() bool { return aggSrv.Received() == 20 })
			// The receiver counts a frame before the uplink's flush returns
			// and counts it sent, and on a stream before the round's ack
			// settles: wait for the sender's side too.
			waitFor(t, "uplink sent count", func() bool { return up.Stats().Sent == 20 })
			waitFor(t, "uplink ack floor", func() bool { return up.Stats().Consumer.AckFloor == 20 })

			series := scrape(t, reg)
			if len(series) < 30 {
				t.Fatalf("ldmsd /metrics serves %d series, want >= 30", len(series))
			}
			wantStagePrefixes(t, series, []string{
				"dlc_bus_", "dlc_tcp_", "dlc_fwd_", "dlc_pool_", "dlc_store_count_",
			})
			if got := series[`dlc_tcp_received_total{srv="ldmsd"}`]; got != "20" {
				t.Errorf(`dlc_tcp_received_total{srv="ldmsd"} = %s, want 20`, got)
			}
			if got := series["dlc_store_count_messages_total"]; got != "20" {
				t.Errorf("dlc_store_count_messages_total = %s, want 20", got)
			}
			// The connection series every uplink configuration exports,
			// with the exact names and labels bench/scrape.go reads.
			for name, want := range map[string]string{
				`dlc_fwd_dials_total{fwd="uplink"}`:      "1",
				`dlc_fwd_reconnects_total{fwd="uplink"}`: "0",
				`dlc_fwd_connected{fwd="uplink"}`:        "1",
				`dlc_fwd_sent_total{fwd="uplink"}`:       "20",
				`dlc_fwd_retries_total{fwd="uplink"}`:    "0",
				`dlc_fwd_naks_total{fwd="uplink"}`:       "0",
			} {
				if got, ok := series[name]; !ok || got != want {
					t.Errorf("%s = %q, want %s", name, got, want)
				}
			}
			// A cursor round is one batch frame per stored batch, whichever
			// stream it reads; no legacy frame is written.
			if batches := series[`dlc_fwd_batch_frames_total{fwd="uplink"}`]; batches == "0" || batches == "" || aggSrv.frames.Load() != 0 {
				t.Errorf("uplink wrote %s batch frames and the aggregator read %d legacy ones, want at least 1 and 0", batches, aggSrv.frames.Load())
			}
			if got := series[`dlc_fwd_wire_bytes_total{fwd="uplink"}`]; got == "" || got == "0" {
				t.Errorf("dlc_fwd_wire_bytes_total = %q, want the bytes of 20 frames", got)
			}
			// The gauge holds the deepest backlog since the last scrape, so
			// the scrape above closed the busy interval and a second one
			// reads the drained stream: the series bench/scrape.go reads as
			// ldmsd.uplink_lag_max_msgs, under either flag.
			if got, ok := scrape(t, reg)[`dlc_stream_consumer_lag{stream="ldmsd",consumer="uplink"}`]; !ok || got != "0" {
				t.Errorf("dlc_stream_consumer_lag = %q after the drain, want 0", got)
			}
			if code := healthCode(health); code != http.StatusOK {
				t.Errorf("/healthz = %d with a healthy uplink, want 200", code)
			}
		})
	}
}

func TestDsosdMetricsEndpointShape(t *testing.T) {
	// A sharded replicated cluster, wired exactly like `dsosd -http`.
	cluster := dsos.NewCluster(4, "darshan_data")
	if err := dsos.SetupDarshan(cluster); err != nil {
		t.Fatal(err)
	}
	cluster.SetReplication(2)
	client := dsos.Connect(cluster)
	d := NewDaemon("dsosd-ingest", "dsosd")
	dstore := NewDSOSStore(client)
	dedup := NewDedupStore(dstore)
	d.StoreReceived("darshanConnector", dedup)
	srv, err := ListenTCP(d, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	reg := obs.NewRegistry()
	cluster.Instrument(reg, obs.WallClock())
	dstore.Instrument(reg)
	dedup.Instrument(reg)
	d.Bus().Collect(reg, "dsosd-ingest")
	srv.Collect(reg, "dsosd")
	CollectPools(reg)
	health := obs.NewHealth()
	health.Register("cluster", cluster.ClusterHealth())

	tcpc, err := DialTCP(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tcpc.Close()
	for i := 0; i < 10; i++ {
		if err := tcpc.Publish(streams.Message{
			Tag: "darshanConnector", Type: streams.TypeJSON, Data: sampleConnectorMessage(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Count sees every replica: R=2 puts each of the ten rows on two shards.
	deadline := time.Now().Add(5 * time.Second)
	for (client.Count(dsos.DarshanSchemaName) < 2*10 || srv.Received() < 10) && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}

	series := scrape(t, reg)
	if len(series) < 30 {
		t.Fatalf("dsosd /metrics serves %d series, want >= 30", len(series))
	}
	// Without -stream the bus carries nothing: the receive store takes
	// every frame, and dedup is a stage.
	wantStagePrefixes(t, series, []string{
		"dlc_dedup_", "dlc_tcp_", "dlc_pool_", "dlc_store_dsos_", "dlc_dsos_shard_", "dlc_dsos_quorum_latency_ns",
	})
	for name, want := range map[string]string{
		"dlc_store_dsos_messages_total":       "10",
		"dlc_dedup_unstamped_total":           "10",
		`dlc_tcp_received_total{srv="dsosd"}`: "10",
	} {
		if got := series[name]; got != want {
			t.Errorf("%s = %s, want %s", name, got, want)
		}
	}
	for name := range series {
		if strings.HasPrefix(name, "dlc_bus_") {
			t.Errorf("%s: the bus carried a frame the receive store took", name)
		}
	}
	if got := series[`dlc_dsos_shard_up{shard="dsosd0"}`]; got != "1" {
		t.Errorf(`dlc_dsos_shard_up{shard="dsosd0"} = %s, want 1`, got)
	}
	if got := series["dlc_dsos_replication"]; got != "2" {
		t.Errorf("dlc_dsos_replication = %s, want 2", got)
	}
	if code := healthCode(health); code != http.StatusOK {
		t.Errorf("/healthz = %d with a full cluster, want 200", code)
	}

	// Crash shards below the replication quorum: the health endpoint
	// must degrade to 503 and the shard gauges must go dark.
	for _, dd := range cluster.Daemons()[:3] {
		dd.Crash()
	}
	if code := healthCode(health); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz = %d with 1/4 shards live and R=2, want 503", code)
	}
	series = scrape(t, reg)
	if got := series[`dlc_dsos_shard_up{shard="dsosd0"}`]; got != "0" {
		t.Errorf(`dlc_dsos_shard_up{shard="dsosd0"} = %s after crash, want 0`, got)
	}
}
