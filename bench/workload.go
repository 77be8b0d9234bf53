package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"time"
)

// workload is one traffic mix. The four below are the benchmark; nothing
// in the daemons or the generated inputs depends on which one is running
// beyond the flags and sizes written here.
type workload struct {
	Name string
	Why  string

	Durable bool // -stream/-wal/dedup topology; otherwise batched best-effort
	Paced   bool // open loop at Rate; otherwise closed loop behind the window
	Reader  bool // a dashboard reader replays query cycles during the timed interval

	// Rate is events per second: the offered rate of a paced writer, and
	// for a firehose the rate that turns seconds into a fixed event count
	// (a stated input size, so B-tree depth and retained state are the
	// same on both sides of a comparison): 400k and 1M timed events at
	// the driver's 10 s, the issue's sizes. The seed code stores the first
	// in about 10.8 s; the second, in about 7 s on a calm host, is as many
	// events as a run can take inside the driver's time cap.
	Rate        int
	FrameEvents int
	Preload     int // events stored during set-up, before the timed stream: what the reader queries
	FullSeconds int // length of the timed interval in a full run
	PollEvery   time.Duration
}

// window is the closed-loop bound on published-but-not-stored events. It
// stays well under the streams' 100000-message retention so the durable
// path never trims an unacked message.
const window = 32768

// warmFraction of every run's events go first and are not timed.
const warmFraction = 0.1

// readerPeriod is the dashboard refresh interval of the reader.
const readerPeriod = 500 * time.Millisecond

var workloads = []workload{
	{
		Name:    "durable-firehose",
		Why:     "saturates the durable path: streams append/fetch/ack, one JSON frame per message, dedup and WAL do most of the work, the store little",
		Durable: true, Rate: 40000, FrameEvents: 64, FullSeconds: 10, PollEvery: 5 * time.Millisecond,
	},
	{
		Name: "besteffort-firehose",
		Why:  "saturates the batched binary path: batch codec, row build and index insert do nearly all the work, streams/WAL/dedup none",
		Rate: 100000, FrameEvents: 64, FullSeconds: 10, PollEvery: 5 * time.Millisecond,
	},
	{
		Name:    "durable-paced",
		Why:     "durable path at about a third of capacity, open loop: latency is set by poll and linger intervals, not by ns/event",
		Durable: true, Paced: true, Rate: 10000, FrameEvents: 16, FullSeconds: 15, PollEvery: time.Millisecond,
	},
	{
		Name:  "query-under-ingest",
		Why:   "the paper's use case: rank, job and time queries against a 320k-event store while a paced writer keeps inserting",
		Paced: true, Reader: true, Rate: 10000, FrameEvents: 64, Preload: 320000, FullSeconds: 20, PollEvery: time.Millisecond,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizes turns a timed-interval length into event counts: the timed events
// are Rate*seconds and the warm-up is the first tenth of the total.
func (w workload) sizes(seconds float64) (total, warm int) {
	timed := float64(w.Rate) * seconds
	frames := int(math.Ceil(timed / (1 - warmFraction) / float64(w.FrameEvents)))
	total = frames * w.FrameEvents
	warm = int(float64(frames)*warmFraction) * w.FrameEvents
	return total, warm
}

// env is where a run builds and spawns.
type env struct {
	root     string // repository root
	binDir   string // built daemons
	runDir   string // parent of per-run directories
	buildSec float64
}

// outDir is where a full run writes its report and traces.
func (e env) outDir() string { return filepath.Join(e.root, "bench", "out") }

// runOpts parameterize one run of one workload.
type runOpts struct {
	seed      uint64
	seconds   float64
	traced    bool
	setupReps int // set-ups per run; the median is reported
}

// runResult is everything one run measured.
type runResult struct {
	Workload    string                  `json:"workload"`
	Seed        uint64                  `json:"seed"`
	Traced      bool                    `json:"traced"`
	Events      int                     `json:"events"`
	WarmEvents  int                     `json:"warm_events"`
	Preload     int                     `json:"preload_events"`
	Stored      int                     `json:"stored"`
	Attempted   int                     `json:"ops_attempted"`
	Failed      int                     `json:"ops_failed"`
	Errors      []string                `json:"errors,omitempty"`
	MeasuredSec float64                 `json:"measured_s"`
	SetupSec    []float64               `json:"setup_s_each"`
	E2E         map[string]float64      `json:"end_to_end"`
	Layer       map[string]float64      `json:"per_layer"`
	Samples     map[string]int          `json:"samples"`
	Latency     map[string]latencyStats `json:"latency"`
	DaemonFlags []string                `json:"daemon_flags"`
}

func (r *runResult) fail(n int, format string, a ...any) {
	r.Failed += n
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, a...))
	}
}

// rig is a set-up topology with its pre-encoded streams.
type rig struct {
	topo    *topology
	preload *eventStream // stored during set-up; the reader's queries read it
	main    *eventStream
	warm    int
}

// setUp spawns fresh daemons, pre-encodes the run's frames from the seed
// and stores the preload, if the workload has one. Its duration is the
// setup_s metric.
func setUp(e env, w workload, o runOpts) (r *rig, err error) {
	t, err := startTopology(e.binDir, e.runDir, topoConfig{durable: w.Durable, traced: o.traced})
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	r = &rig{topo: t}
	g := newGenerator(o.seed)
	if r.preload, err = g.stream(w.Preload, 64, 1); err != nil {
		return nil, err
	}
	jobBase := int64(1 + jobsPerStream)
	total, warm := w.sizes(o.seconds)
	r.warm = warm
	if r.main, err = g.stream(total, w.FrameEvents, jobBase); err != nil {
		return nil, err
	}
	if w.Preload > 0 {
		if err = r.storePreload(); err != nil {
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	return r, nil
}

// storePreload pushes the preload stream through the pipeline behind the
// same window as a firehose and waits until all of it is stored.
func (r *rig) storePreload() error {
	conn, err := net.Dial("tcp", r.topo.ldmsdAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	epoch := time.Now()
	p := startPoller(r.topo, epoch, 5*time.Millisecond)
	_, werr := firehose(r.topo, conn, r.preload, 0, window, p, epoch)
	if werr == nil {
		werr = waitCount(r.topo, p, r.preload.events, 60*time.Second)
	}
	if _, perr := p.finish(); werr == nil {
		werr = perr
	}
	return werr
}

// runWorkload sets the workload up (setupReps times, keeping the last),
// drives it, verifies the store and returns the measurements.
func runWorkload(e env, w workload, o runOpts) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: o.seed, Traced: o.traced,
		E2E: map[string]float64{}, Layer: map[string]float64{}, Samples: map[string]int{},
		Latency: map[string]latencyStats{},
	}
	var r *rig
	for i := 0; i < o.setupReps; i++ {
		if r != nil {
			r.topo.close()
		}
		start := time.Now()
		var err error
		if r, err = setUp(e, w, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupSec = append(res.SetupSec, time.Since(start).Seconds())
	}
	defer r.topo.close()
	res.E2E["setup_s"] = median(res.SetupSec)
	res.DaemonFlags = []string{r.topo.ldmsd.flagLine(), r.topo.dsosd.flagLine()}
	if err := drive(w, o, r, res); err != nil {
		return nil, err
	}
	return res, nil
}

// drive runs the measured part of a workload on a set-up rig: the main
// stream (with the reader beside it, if any), the daemons' cost over that
// stream, then the verification fetch and the exact-count check.
func drive(w workload, o runOpts, r *rig, res *runResult) error {
	t := r.topo
	base := r.preload.events
	res.Events, res.WarmEvents, res.Preload = r.main.events, r.warm, base
	want := base + r.main.events

	conn, err := net.Dial("tcp", t.ldmsdAddr)
	if err != nil {
		return err
	}
	defer conn.Close()

	var qlog queryLog
	// The daemons' cost is charged to the main stream alone: what they
	// had spent on starting up and on the preload is subtracted.
	lu0, du0, err := t.usage()
	if err != nil {
		return err
	}

	epoch := time.Now()
	p := startPoller(t, epoch, w.PollEvery)
	var sc *scraper
	if o.traced {
		sc = startScraper(t, 50*time.Millisecond)
	}

	// The reader falls due with the first timed frame and ends with the
	// timed interval, so it never runs against a quiet store.
	var readerLate []time.Duration
	readerDone := make(chan struct{})
	stopReader := make(chan struct{})
	warmFrames := r.warm / w.FrameEvents
	if w.Reader {
		framePeriod := time.Duration(float64(time.Second) * float64(w.FrameEvents) / float64(w.Rate))
		readerStart := epoch.Add(time.Duration(warmFrames) * framePeriod)
		cycles := readerCycles(r.preload, o.seed, int(time.Duration(o.seconds*float64(time.Second))/readerPeriod))
		go func() {
			defer close(readerDone)
			readerLate = runReader(t, cycles, readerPeriod, readerStart, &qlog, stopReader)
		}()
	} else {
		close(readerDone)
	}

	var wr writeResult
	if w.Paced {
		wr, err = paced(t, conn, r.main, base, w.Rate, epoch)
	} else {
		wr, err = firehose(t, conn, r.main, base, window, p, epoch)
	}
	if err == nil {
		err = waitCount(t, p, want, 60*time.Second)
	}
	if err != nil {
		close(stopReader)
	}
	<-readerDone
	polls, perr := p.finish()
	if err != nil {
		// A short count is a verification failure the report should show,
		// not a harness error; anything else (a dead daemon) aborts.
		if aerr := t.checkAlive(); aerr != nil {
			return aerr
		}
		if perr != nil {
			return perr
		}
		res.fail(1, "%v", err)
	}
	if len(wr.pubs) == 0 || len(polls) == 0 {
		return fmt.Errorf("nothing was published or polled")
	}

	// What the daemons cost, read the moment the stream has drained:
	// before the verification fetch and the shutdown snapshot.
	var scr scrapeResult
	if sc != nil {
		scr = sc.finish()
	}
	lu, du, err := t.usage()
	if err != nil {
		return err
	}
	lu.CPUSeconds -= lu0.CPUSeconds
	du.CPUSeconds -= du0.CPUSeconds

	// Timed interval: from the first timed frame to the poll that first
	// saw every event stored.
	t0 := wr.pubs[min(warmFrames, len(wr.pubs)-1)].at
	tEnd, drained := firstReached(polls, want)
	if !drained {
		tEnd = polls[len(polls)-1].at
	}
	timedStored := min(polls[len(polls)-1].count, want) - countAt(polls, t0)
	res.MeasuredSec = (tEnd - t0).Seconds()
	res.E2E["ingest_ev_per_s"] = float64(timedStored) / res.MeasuredSec
	res.Layer["gen.lateness_p99_ms"] = latencies(msAll(wr.lateness)).P99
	res.Layer["gen.poll_gap_p99_ms"] = latencies(pollGaps(polls)).P99
	res.Layer["gen.gate_wait_pct"] = 100 * wr.gateWait.Seconds() / (tEnd - wr.pubs[0].at).Seconds()
	res.Layer["gen.reader_late_p99_ms"] = latencies(msAll(readerLate)).P99
	res.Samples["polls"] = len(polls)

	// Publish -> queryable of every timed frame: from its due time in an
	// open loop, from the moment its write began behind the closed loop
	// (where it is the time a frame waits behind the window).
	lat, unmatched := matchWatermarks(wr.pubs[warmFrames:], polls)
	ql := latencies(msAll(lat))
	res.Latency["queryable_ms"] = ql
	res.E2E["queryable_p50_ms"] = ql.P50
	res.Layer["queryable_p90_ms"] = ql.P90
	res.Layer["queryable_p99_ms"] = ql.P99
	if unmatched > 0 && drained {
		res.fail(unmatched, "%d publish points never became queryable", unmatched)
	}

	verifyRank(t, r.main, o.seed, &qlog, res)
	for k, name := range queryKindNames {
		l := latencies(qlog.ms[k])
		res.Latency["query_"+name+"_ms"] = l
		res.Layer["query_"+name+"_p50_ms"] = l.P50
		res.Layer["query_"+name+"_max_ms"] = l.Max
	}
	if qlog.failed > 0 {
		res.fail(qlog.failed, "%d of %d queries failed; first: %v", qlog.failed, qlog.attempted, qlog.firstErr)
	}

	// Exactly-once: after the queries (time enough for a late duplicate)
	// the count must still be exactly what was published.
	res.Stored, err = t.count()
	if err != nil {
		return err
	}
	if res.Stored != want {
		res.fail(abs(res.Stored-want), "store holds %d events, published %d (lost or duplicated)", res.Stored, want)
	}
	res.Attempted = want + qlog.attempted

	if err := t.checkAlive(); err != nil {
		return err
	}
	t.stopDaemons()
	disk, err := t.disk()
	if err != nil {
		return err
	}

	// CPU is that of the main stream; the disk holds the preload too.
	res.costs(lu, du, disk, float64(r.main.events), float64(want))
	if sc != nil {
		res.Layer["ldmsd.uplink_lag_max_msgs"] = scr.uplinkLagMax
		res.Layer["dsosd.ingest_lag_max_msgs"] = scr.ingestLagMax
		res.Layer["dsosd.dedup_absorbed"] = math.Max(0, scr.ingestAppended-float64(base+r.main.events))
		res.Samples["scrapes"] = scr.scrapes
	}
	return nil
}

// costs records what the daemons spent: CPU per event of the main stream,
// peak memory, bytes per stored event on disk at the end, and the split of
// each sum by daemon and by file kind.
func (r *runResult) costs(lu, du usage, disk diskUsage, ingested, stored float64) {
	r.E2E["cpu_us_per_event"] = (lu.CPUSeconds + du.CPUSeconds) * 1e6 / ingested
	r.E2E["rss_mb"] = lu.PeakRSSMB + du.PeakRSSMB
	r.E2E["disk_bytes_per_event"] = float64(disk.total()) / stored
	r.Layer["ldmsd.cpu_us_per_event"] = lu.CPUSeconds * 1e6 / ingested
	r.Layer["dsosd.cpu_us_per_event"] = du.CPUSeconds * 1e6 / ingested
	r.Layer["ldmsd.rss_mb"] = lu.PeakRSSMB
	r.Layer["dsosd.rss_mb"] = du.PeakRSSMB
	r.Layer["ldmsd.stream_bytes_per_event"] = float64(disk.LdmsdStream) / stored
	r.Layer["dsosd.stream_bytes_per_event"] = float64(disk.DsosdStream) / stored
	r.Layer["dsosd.wal_bytes_per_event"] = float64(disk.DsosdWAL) / stored
	r.Layer["dsosd.snapshot_bytes_per_event"] = float64(disk.Snapshot) / stored
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// newEnv locates the repository, builds the daemons into
// <root>/.bench_build and prepares the directory runs live in.
func newEnv(start string) (env, error) {
	root, err := findRoot(start)
	if err != nil {
		return env{}, err
	}
	e := env{root: root, binDir: filepath.Join(root, ".bench_build", "bin"), runDir: filepath.Join(root, ".bench_build", "run")}
	d, err := buildDaemons(root, e.binDir)
	if err != nil {
		return env{}, err
	}
	e.buildSec = d.Seconds()
	return e, os.MkdirAll(e.runDir, 0o755)
}
