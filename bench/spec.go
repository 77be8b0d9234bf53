package main

// metricDef is one named metric as BENCHMARK.json declares it. Bound is
// the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none. The names are fixed: later issues refer to them verbatim, and a
// test keeps this table and BENCHMARK.json identical.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the pipeline sees. Every workload
// reports every one of them; README.md says what each means where.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ingest_ev_per_s", "1/s", higher, 0.25},
	{"cpu_us_per_event", "us", lower, 0.25},
	{"rss_mb", "MB", lower, 0.15},
	{"disk_bytes_per_event", "B", lower, 0.01},
	{"queryable_p50_ms", "ms", lower, 0.25},
}

// timedLayers are the in-process operations the ledger reports as
// <name>_ns and <name>_allocs per event.
var timedLayers = []string{
	"jsonmsg.encode", "jsonmsg.parse",
	"event.encode", "event.slab_decode", "event.slab_decode_miss",
	"ldms.frame_write", "ldms.frame_read", "ldms.tcp_single",
	"ldms.batch_write", "ldms.batch_read", "ldms.tcp_batch",
	"ldms.dedup", "ldms.uplink_drain",
	"streams.bus_publish", "streams.append", "streams.fetch_ack",
	"sos.insert_3idx", "sos.insert_1idx", "sos.wal_append", "sos.range_row",
	"dsos.row_build", "dsos.insert_batch", "dsos.insert_batch_wal", "ldms.dsos_store",
}

// pathStages are the stages of each traced path, reported as
// path.<path>.<stage>_ns (self time per event).
var pathStages = map[string][]string{
	"durable": {
		"ldms.batch_read", "streams.bus_publish", "jsonmsg.encode", "streams.append", "streams.fetch_ack",
		"ldms.frame_write", "ldms.frame_read", "jsonmsg.parse", "ldms.dedup", "ldms.dsos_store", "sos.wal_append",
	},
	"besteffort": {"ldms.batch_read", "dsos.row_build", "dsos.insert_batch"},
}

// perLayer lists every per-layer metric in report order.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, name := range timedLayers {
		defs = append(defs, metricDef{name + "_ns", "ns", lower, 0}, metricDef{name + "_allocs", "count", lower, 0})
	}
	defs = append(defs,
		metricDef{"ldms.uplink_idle_p50_ms", "ms", lower, 0},
		metricDef{"streams.bytes_per_event", "B", lower, 0},
		metricDef{"sos.wal_bytes_per_event", "B", lower, 0},
		metricDef{"dsos.query_rank_ms", "ms", lower, 0},
		metricDef{"dsos.query_job_ms", "ms", lower, 0},
		metricDef{"dsos.query_time_ms", "ms", lower, 0},
		metricDef{"analysis.bytes_timeline_ms", "ms", lower, 0},
		metricDef{"analysis.frame_build_ms", "ms", lower, 0},
	)
	for _, path := range []string{"durable", "besteffort"} {
		defs = append(defs,
			metricDef{"path." + path + "_ns", "ns", lower, 0},
			metricDef{"path." + path + ".durable_only_pct", "%", lower, 0},
		)
		for _, st := range pathStages[path] {
			defs = append(defs, metricDef{"path." + path + "." + st + "_ns", "ns", lower, 0})
		}
	}
	defs = append(defs,
		// The split of the end-to-end sums, from the traced run.
		metricDef{"ldmsd.cpu_us_per_event", "us", lower, 0},
		metricDef{"dsosd.cpu_us_per_event", "us", lower, 0},
		metricDef{"ldmsd.rss_mb", "MB", lower, 0},
		metricDef{"dsosd.rss_mb", "MB", lower, 0},
		metricDef{"ldmsd.stream_bytes_per_event", "B", lower, 0},
		metricDef{"dsosd.stream_bytes_per_event", "B", lower, 0},
		metricDef{"dsosd.wal_bytes_per_event", "B", lower, 0},
		metricDef{"dsosd.snapshot_bytes_per_event", "B", lower, 0},
		// Backlog per stage, scraped from /metrics at 20 Hz.
		metricDef{"ldmsd.uplink_lag_max_msgs", "count", lower, 0},
		metricDef{"dsosd.ingest_lag_max_msgs", "count", lower, 0},
		metricDef{"dsosd.dedup_absorbed", "count", lower, 0},
		// Demoted from the end-to-end list: run-to-run spread on the host
		// this was written on is wider than any bound the driver accepts
		// (README.md has the figures). The reader of query-under-ingest
		// measures them; the other workloads issue no timed query and
		// report 0.
		metricDef{"query_rank_p50_ms", "ms", lower, 0},
		metricDef{"query_job_p50_ms", "ms", lower, 0},
		metricDef{"query_time_p50_ms", "ms", lower, 0},
		metricDef{"queryable_p90_ms", "ms", lower, 0},
		// Diagnostics: tails too thin to bound, and the generator's own
		// checks on the validity of everything above.
		metricDef{"queryable_p99_ms", "ms", lower, 0},
		metricDef{"query_rank_max_ms", "ms", lower, 0},
		metricDef{"query_job_max_ms", "ms", lower, 0},
		metricDef{"query_time_max_ms", "ms", lower, 0},
		metricDef{"gen.lateness_p99_ms", "ms", lower, 0},
		metricDef{"gen.poll_gap_p99_ms", "ms", lower, 0},
		metricDef{"gen.gate_wait_pct", "%", lower, 0},
		metricDef{"gen.reader_late_p99_ms", "ms", lower, 0},
		metricDef{"trace.overhead_pct", "%", lower, 0},
	)
	return defs
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
