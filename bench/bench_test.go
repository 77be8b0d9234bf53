package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{1, 50, false}, {19, 50, false}, // not even the median has ten samples beyond it
		{20, 50, true}, {99, 50, true},
		{100, 90, true}, {999, 90, true},
		{1000, 99, true}, {9999, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.1, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	l := latencies([]float64{5, 1, 3})
	if l.N != 3 || l.P50 != 3 || l.TailOK {
		t.Errorf("latencies of three = %+v", l)
	}
}

func at(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }

func TestMatchWatermarks(t *testing.T) {
	pubs := []pubPoint{{at(0), 10}, {at(10), 20}, {at(20), 30}, {at(30), 40}, {at(40), 50}}
	polls := []pollPoint{
		{at(1), 0}, {at(6), 10}, // event 10 first seen at 6: 6 ms
		{at(11), 12}, // no watermark crossed
		{at(25), 35}, // 20 and 30 both first seen here: 15 ms and 5 ms
		{at(29), 40}, // stored before it was due: clamps to 0
	}
	lat, unmatched := matchWatermarks(pubs, polls)
	want := []time.Duration{at(6), at(15), at(5), 0}
	if !reflect.DeepEqual(lat, want) || unmatched != 1 {
		t.Fatalf("matchWatermarks = %v, unmatched %d; want %v, 1", lat, unmatched, want)
	}
	if n := countAt(polls, at(12)); n != 12 {
		t.Errorf("countAt(12ms) = %d, want 12", n)
	}
	if n := countAt(polls, 0); n != 0 {
		t.Errorf("countAt(0) = %d, want 0", n)
	}
	if when, ok := firstReached(polls, 35); !ok || when != at(25) {
		t.Errorf("firstReached(35) = %v, %v", when, ok)
	}
	if _, ok := firstReached(polls, 41); ok {
		t.Errorf("firstReached(41) found a poll")
	}
	if g := pollGaps(polls); !reflect.DeepEqual(g, []float64{5, 5, 14, 4}) {
		t.Errorf("pollGaps = %v", g)
	}
}

// fakeClock is a clock a schedule can sleep on without waiting.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) sleep(d time.Duration) { c.now += d }

func TestScheduleCountsStallAgainstLaterItems(t *testing.T) {
	c := &fakeClock{}
	s := schedule{period: at(10), now: func() time.Duration { return c.now }, sleep: c.sleep}
	var dues []time.Duration
	late, err := s.run(8, func(i int, due time.Duration) error {
		dues = append(dues, due)
		c.now += at(1) // a send takes 1 ms
		if i == 2 {
			c.now += at(35) // and the third one stalls for 35 ms more
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The plan never shifts: item i is due at i*10 ms, stall or no stall.
	for i, d := range dues {
		if d != at(10*i) {
			t.Errorf("item %d due at %v, want %v", i, d, at(10*i))
		}
	}
	// Item 2 went out at 20 and returned at 56: items 3, 4 and 5 (due at
	// 30, 40, 50) go out back to back at 56, 57, 58, and the schedule has
	// caught up by item 6.
	want := []time.Duration{0, 0, 0, at(26), at(17), at(8), 0, 0}
	if !reflect.DeepEqual(late, want) {
		t.Errorf("lateness = %v, want %v", late, want)
	}
}

func TestGateOpen(t *testing.T) {
	for _, c := range []struct {
		published, stored, n, window int
		want                         bool
	}{
		{0, 0, 64, 128, true},
		{64, 0, 64, 128, true},      // exactly fills the window
		{128, 0, 64, 128, false},    // would overfill it
		{128, 64, 64, 128, true},    // the store caught up by one frame
		{1000, 1000, 64, 32, false}, // a frame larger than the window never fits
		{64, -1, 64, 128, false},    // the poller failed: stay shut
	} {
		if got := gateOpen(c.published, c.stored, c.n, c.window); got != c.want {
			t.Errorf("gateOpen(%d, %d, %d, %d) = %v, want %v", c.published, c.stored, c.n, c.window, got, c.want)
		}
	}
}

func TestCSVRows(t *testing.T) {
	for body, want := range map[string]int{"": 0, "#h\n": 0, "#h\na\nb\n": 2, "#h\na\nb": 2} {
		if got := csvRows([]byte(body)); got != want {
			t.Errorf("csvRows(%q) = %d, want %d", body, got, want)
		}
	}
}

func TestParseProm(t *testing.T) {
	m := parseProm([]byte("# HELP x\n# TYPE x gauge\nx 3\ndlc_stream_consumer_lag{stream=\"ldmsd\",consumer=\"uplink\"} 41\nbad line\n"))
	if m["x"] != 3 || m[`dlc_stream_consumer_lag{stream="ldmsd",consumer="uplink"}`] != 41 || len(m) != 2 {
		t.Errorf("parseProm = %v", m)
	}
}

func TestSelfTimes(t *testing.T) {
	// batch [0,100] holds fetch [10,90], which holds two writes of 20 each.
	spans := []span{
		{Name: rootName, StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "streams.fetch_ack", StartNs: 10, EndNs: 90, Parent: 0, Calls: 2},
		{Name: "ldms.frame_write", StartNs: 20, EndNs: 40, Parent: 1, Calls: 1},
		{Name: "ldms.frame_write", StartNs: 50, EndNs: 70, Parent: 1, Calls: 1},
	}
	st := selfTimes(spans)
	if st[rootName].SelfNs != 20 || st["streams.fetch_ack"].SelfNs != 40 || st["ldms.frame_write"].SelfNs != 40 {
		t.Errorf("self times: batch %d fetch_ack %d frame_write %d", st[rootName].SelfNs, st["streams.fetch_ack"].SelfNs, st["ldms.frame_write"].SelfNs)
	}
	tr := &tracer{spans: spans, batch: 1}
	pt := summarizeTrace("path.test", tr, 2, 1)
	if pt.TotalNs != 100 || pt.NsPerEvent != 50 {
		t.Errorf("trace total %d ns, %v ns/event; self times must add up to the root span", pt.TotalNs, pt.NsPerEvent)
	}
	if got := pt.share("streams.", "ldms.frame_"); got != 80 {
		t.Errorf("share = %v, want 80", got)
	}
}

func TestGeneratorIsSeededAndSelfConsistent(t *testing.T) {
	gen := func(seed uint64) *eventStream {
		s, err := newGenerator(seed).stream(1000, 64, 1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a.buf, b.buf) {
		t.Error("same seed, different frames")
	}
	if bytes.Equal(a.buf, c.buf) {
		t.Error("different seeds, same frames")
	}
	if len(a.frames) != 16 || a.frames[15].cum != 1000 || a.frames[0].cum != 64 {
		t.Errorf("framing: %d frames, last cum %d", len(a.frames), a.frames[len(a.frames)-1].cum)
	}
	rows, jobs := 0, 0
	for _, ref := range a.ranks {
		rows += ref.rows
		if ref.firstTS > ref.lastTS {
			t.Errorf("rank reference timestamps out of order: %+v", ref)
		}
	}
	for _, n := range a.jobRows {
		jobs += n
	}
	if rows != 1000 || jobs != 1000 {
		t.Errorf("references cover %d rank rows and %d job rows of 1000 events", rows, jobs)
	}
}

func TestSizes(t *testing.T) {
	w, _ := findWorkload("durable-paced")
	total, warm := w.sizes(10)
	if timed := total - warm; timed < 100000 || timed > 100000+2*w.FrameEvents {
		t.Errorf("10s at %d ev/s times %d events (total %d, warm %d)", w.Rate, timed, total, warm)
	}
	if warm < total/11 || warm > total/9 {
		t.Errorf("warm-up %d is not a tenth of %d", warm, total)
	}
}

func TestWorseBy(t *testing.T) {
	up, _ := findMetric(endToEnd, "ingest_ev_per_s")
	down, _ := findMetric(endToEnd, "cpu_us_per_event")
	if got := worseBy(up, 100, 90); got != 0.1 {
		t.Errorf("throughput 100 -> 90 is worse by %v, want 0.1", got)
	}
	if got := worseBy(down, 100, 90); got != -0.1 {
		t.Errorf("cpu 100 -> 90 is worse by %v, want -0.1", got)
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(ingest float64) *report {
		w := workloads[0]
		r := &runResult{E2E: map[string]float64{}, Layer: map[string]float64{}}
		for _, d := range endToEnd {
			r.E2E[d.Name] = 100
		}
		r.E2E["ingest_ev_per_s"] = ingest
		return &report{Workloads: []*workloadReport{summarizeReps(w, []*runResult{r})}}
	}
	dir := t.TempDir()
	for name, rep := range map[string]*report{"a": mk(100), "ok": mk(95), "bad": mk(60)} {
		if err := rep.write(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	path := func(name string) string { return filepath.Join(dir, name, "bench.json") }
	if over, err := compareReports(io.Discard, path("a"), path("ok")); err != nil || over != 0 {
		t.Errorf("5%% slower: over=%d err=%v, want within bounds", over, err)
	}
	var out bytes.Buffer
	if over, err := compareReports(&out, path("a"), path("bad")); err != nil || over != 1 {
		t.Errorf("40%% slower: over=%d err=%v, want one metric over its bound\n%s", over, err, out.String())
	}
	if !strings.Contains(out.String(), "OVER BOUND") {
		t.Errorf("compare output does not flag the regression:\n%s", out.String())
	}
}

// benchmarkCommand and benchmarkSeconds are the remaining fields of
// BENCHMARK.json: how the driver invokes the benchmark and for how long.
var benchmarkCommand = []string{"bash", "bench/run.sh"}

const benchmarkSeconds = 10

// benchmarkJSON renders BENCHMARK.json from the metric and workload tables.
func benchmarkJSON() ([]byte, error) {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: benchmarkCommand, Paths: []string{"bench"}, RunSeconds: benchmarkSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, named{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		bound := d.Bound
		spec.EndToEnd = append(spec.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayer {
		spec.PerLayer = append(spec.PerLayer, metric{d.Name, d.Unit, d.Better, nil})
	}
	out, err := json.MarshalIndent(spec, "", "  ")
	return append(out, '\n'), err
}

var update = flag.Bool("update", false, "rewrite BENCHMARK.json from the tables in spec.go")

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, identical to the tables the program reports from (after a change
// to them: go test ./bench -run BenchmarkJSON -update), and the tables
// inside the driver's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it: go test ./bench -run BenchmarkJSON -update")
	}
	if len(want) > 64<<10 || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d bytes, %d workloads, %d end-to-end and %d per-layer metrics exceed the driver's limits", len(want), len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != lower && d.Better != higher) {
			t.Errorf("metric %+v: duplicate, over-long or without a direction", d)
		}
		seen[d.Name] = true
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if d, ok := findMetric(endToEnd, "setup_s"); !ok || d.Unit != "s" || d.Better != lower {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmoke runs the whole harness against the real daemons at about 20k
// events per workload: every daemon flag the benchmark passes, every
// public call the ledger times. A flag renamed in cmd/ldmsd or cmd/dsosd,
// or a layer function that changed shape, fails here and not in a later
// benchmark run.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the real daemons")
	}
	e, err := newEnv(".")
	if err != nil {
		t.Fatal(err)
	}
	defer live.closeAll()
	start := time.Now()
	rep, err := execute(e, smokePlan(42), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke: %.1fs after a %.1fs build", time.Since(start).Seconds(), e.buildSec)
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads ran", len(rep.Workloads))
	}
	for _, wr := range rep.Workloads {
		if wr.Failed != 0 {
			t.Errorf("%s: ops_failed %d, errors %v", wr.Name, wr.Failed, wr.Reps[0].Errors)
			continue
		}
		for _, d := range endToEnd {
			if m := wr.EndToEnd[d.Name]; m.Median <= 0 {
				t.Errorf("%s: %s = %v, want a positive measurement", wr.Name, d.Name, m.Median)
			}
		}
		// The smoke plan traces the two firehoses: both topologies.
		if wr.Traced == nil {
			continue
		}
		if wr.Traced.Failed != 0 || wr.Traced.Samples["scrapes"] == 0 {
			t.Errorf("%s traced: ops_failed %d, %d scrapes, errors %v", wr.Name, wr.Traced.Failed, wr.Traced.Samples["scrapes"], wr.Traced.Errors)
		}
		// Every per-layer metric comes from the traced run or the ledger.
		for _, d := range perLayer {
			_, inRun := wr.Traced.Layer[d.Name]
			_, inLedger := rep.Layers[d.Name]
			if !inRun && !inLedger {
				t.Errorf("%s: per-layer metric %s was not measured", wr.Name, d.Name)
			}
		}
	}
	durable := rep.Workloads[0].Traced.Layer
	if durable["ldmsd.uplink_lag_max_msgs"] == 0 || durable["dsosd.stream_bytes_per_event"] == 0 || durable["dsosd.wal_bytes_per_event"] == 0 {
		t.Errorf("durable-firehose: lag %v, stream %v B/event, WAL %v B/event: the durable path left no trace",
			durable["ldmsd.uplink_lag_max_msgs"], durable["dsosd.stream_bytes_per_event"], durable["dsosd.wal_bytes_per_event"])
	}
	for _, pt := range rep.Paths {
		share := pt.share(durableOnlyStages...)
		if pt.Path == "path.durable" && share < 50 {
			t.Errorf("path.durable: durable-only stages carry %.1f%%, predicted at least half", share)
		}
		if pt.Path == "path.besteffort" && share != 0 {
			t.Errorf("path.besteffort: durable-only stages carry %.1f%%, predicted none", share)
		}
	}
	entries, err := os.ReadDir(e.runDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("%d run directories left behind in %s", len(entries), e.runDir)
	}
}
