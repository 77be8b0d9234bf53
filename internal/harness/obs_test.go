package harness

import (
	"strings"
	"testing"

	"darshanldms/internal/apps"
	"darshanldms/internal/connector"
	"darshanldms/internal/jsonmsg"
	"darshanldms/internal/obs"
	"darshanldms/internal/simfs"
)

// TestChaosRunSnapshotCoversStages runs one fault-free chaos pipeline
// and asserts its telemetry snapshot has series for every stage, and
// that the rendered soak report embeds the snapshot.
func TestChaosRunSnapshotCoversStages(t *testing.T) {
	cfg := shortSoakConfig(7, 2, true)
	cfg.Scale = 0.005
	res, _, err := runChaosSoak(cfg, "oracle", nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Obs) == 0 {
		t.Fatal("chaos run produced no telemetry snapshot")
	}
	byName := map[string]float64{}
	for _, s := range res.Obs {
		byName[s.Name] = s.Value
	}
	tag := connector.DefaultTag
	mustPositive := []string{
		"dlc_connector_published_total",
		"dlc_connector_encode_cost_vns_count",
		`dlc_bus_published_total{bus="node",tag="` + tag + `"}`,
		`dlc_bus_published_total{bus="agg-head",tag="` + tag + `"}`,
		`dlc_bus_published_total{bus="agg-remote",tag="` + tag + `"}`,
		"dlc_dedup_stored_total",
		"dlc_store_dsos_messages_total",
		"dlc_store_dsos_objects_total",
		"dlc_dsos_origins_allocated_total",
		`dlc_dsos_shard_inserts_total{shard="dsosd0"}`,
	}
	for _, name := range mustPositive {
		if byName[name] <= 0 {
			t.Errorf("snapshot series %s = %v, want > 0", name, byName[name])
		}
	}
	// Present even when zero: retries and errors on a fault-free run,
	// encoded bytes because typed records are never wire-encoded in the
	// all-in-process topology (lazy encoding is the point).
	for _, name := range []string{
		"dlc_retry_retries_total",
		"dlc_store_dsos_errors_total",
		"dlc_connector_encoded_bytes_total",
	} {
		if _, ok := byName[name]; !ok {
			t.Errorf("snapshot is missing series %s", name)
		}
	}

	soak := &ChaosSoakResult{Label: "test", Oracle: *res}
	out := RenderChaosSoak(soak)
	if !strings.Contains(out, "pipeline stage snapshot (oracle run):") {
		t.Error("soak report does not embed the telemetry snapshot")
	}
	if !strings.Contains(out, "dlc_dedup_stored_total") {
		t.Error("soak report snapshot is missing stage series")
	}
}

// TestTelemetryDoesNotPerturbRun is the in-repo version of the CI
// determinism-regression job: the same seeded run, once bare and once
// with a registry attached, must produce identical results — telemetry
// observes, never steers.
func TestTelemetryDoesNotPerturbRun(t *testing.T) {
	base := RunOptions{
		Seed: 5, JobID: 77, UID: 1, Exe: "/bin/x", FSKind: simfs.Lustre,
		Connector: true, Encoder: jsonmsg.FastEncoder{},
		App: func(env apps.Env) {
			cfg := apps.DefaultHACCIO(env.M.Nodes()[:2], 50_000)
			cfg.RanksPerNode = 4
			apps.RunHACCIO(env, cfg)
		},
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	withObs := base
	withObs.Telemetry = reg
	observed, err := Run(withObs)
	if err != nil {
		t.Fatal(err)
	}

	if plain.Runtime != observed.Runtime || plain.Events != observed.Events ||
		plain.Messages != observed.Messages || plain.Rate != observed.Rate ||
		plain.Conn != observed.Conn {
		t.Fatalf("telemetry perturbed the run:\nbare     %+v\nobserved %+v", plain, observed)
	}
	if reg.Value("dlc_connector_published_total") == 0 {
		t.Fatal("telemetry run recorded nothing")
	}
	if reg.Value(`dlc_bus_published_total{bus="node",tag="`+connector.DefaultTag+`"}`) == 0 {
		t.Fatal("node bus stage not collected")
	}
}
