// Command bench is the repository's benchmark: it builds and spawns the
// real ldmsd and dsosd on loopback, drives them from a seeded generator,
// verifies what they stored, and reports a few end-to-end metrics beside
// a ledger of per-layer measurements. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	var (
		wlName  = flag.String("workload", "", "driver mode: run this one workload once and print one JSON line")
		seed    = flag.Uint64("seed", 42, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "length of the timed interval in seconds (0 = each workload's own)")
		trace   = flag.Int("trace", 0, "driver mode: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		reps    = flag.Int("reps", 3, "full run: repetitions of each workload, each on fresh daemons")
		only    = flag.String("only", "", "full run: comma list of workloads to run (default all)")
		smoke   = flag.Bool("smoke", false, "run every workload and layer at about 20k events, to check the harness, not to measure")
		compare = flag.Bool("compare", false, "compare two bench.json files given as arguments, metric by metric, against the bounds")
	)
	flag.Parse()
	cleanupOnSignal()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two bench.json files"))
		}
		over, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if over > 0 {
			fmt.Printf("%d metrics worse by more than their bound\n", over)
			os.Exit(1)
		}
		return
	}

	e, err := newEnv(".")
	if err != nil {
		fatal(err)
	}
	if *wlName != "" {
		os.Exit(driverMode(e, *wlName, *seed, *seconds, *trace != 0))
	}

	p := fullPlan(*seed, *reps)
	if *smoke {
		p = smokePlan(*seed)
	}
	if *seconds > 0 {
		p.seconds = func(workload) float64 { return *seconds }
	}
	if *only != "" {
		p.workloads = nil
		for _, name := range strings.Split(*only, ",") {
			w, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown workload %q", name))
			}
			p.workloads = append(p.workloads, w)
		}
	}
	rep, err := execute(e, p, os.Stderr)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if err := rep.write(e.outDir()); err != nil {
		fatal(err)
	}
	fmt.Printf("\nwrote %s\n", filepath.Join(e.outDir(), "bench.json"))
	for _, wr := range rep.Workloads {
		// Event counts are fixed, so that both sides of a comparison build
		// the same store. An interval under the issue's 10 s says the code
		// outran the size (or, for besteffort-firehose, that the host is
		// calm: its million events are all the driver's time cap allows);
		// it is a reason to raise Rate, not a failure.
		if !*smoke && *seconds == 0 && wr.TimedSec < 10 {
			fmt.Fprintf(os.Stderr, "bench: %s: the timed interval was %.2f s, under the 10 s the issue asks for\n", wr.Name, wr.TimedSec)
		}
		if wr.Failed > 0 || (wr.Traced != nil && wr.Traced.Failed > 0) {
			fmt.Fprintf(os.Stderr, "bench: %s: output verification failed\n", wr.Name)
			os.Exit(1)
		}
	}
}

// fatal reports err, tears down whatever is still running and exits 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	live.closeAll()
	os.Exit(1)
}

// plan is what a full run does.
type plan struct {
	seed       uint64
	workloads  []workload
	seconds    func(workload) float64
	reps       int
	traced     func(workload) bool // rerun the workload once with ldmsd -http and /metrics scraped?
	layers     layerSizes
	pathEvents int
}

func fullPlan(seed uint64, reps int) plan {
	return plan{
		seed: seed, workloads: workloads, reps: reps,
		traced:  func(workload) bool { return true },
		seconds: func(w workload) float64 { return float64(w.FullSeconds) },
		layers:  fullLayers, pathEvents: 65536,
	}
}

// smokePlan shrinks everything to about 20k events per workload so the
// whole harness — every daemon flag, every layer call — runs in seconds.
func smokePlan(seed uint64) plan {
	p := fullPlan(seed, 1)
	p.workloads = nil
	for _, w := range workloads {
		if !w.Paced {
			w.Rate = 9000
		}
		if w.Preload > 0 {
			w.Preload = 20480
		}
		p.workloads = append(p.workloads, w)
	}
	p.seconds = func(workload) float64 { return 2 }
	// The two firehoses cover both topologies' flag sets, -http included.
	p.traced = func(w workload) bool { return !w.Paced }
	p.layers = layerSizes{events: 6400, quietStore: 20480, idleSamples: 5}
	p.pathEvents = 6400
	return p
}

// execute runs the plan and returns the report. Repetitions are
// interleaved across the workloads (rep 1 of each, then rep 2 of each), so
// a slow spell of the host lands on one rep of every workload and not on
// every rep of one, and the medians ride it out.
func execute(e env, p plan, progress io.Writer) (*report, error) {
	rep := &report{Provenance: newProvenance(e, p.seed, p.reps), BuildSeconds: e.buildSec}
	runs := make([][]*runResult, len(p.workloads))
	for i := 0; i < p.reps; i++ {
		for k, w := range p.workloads {
			start := time.Now()
			r, err := runWorkload(e, w, runOpts{seed: p.seed, seconds: p.seconds(w), setupReps: 1})
			if err != nil {
				return nil, fmt.Errorf("%s rep %d: %w", w.Name, i+1, err)
			}
			fmt.Fprintf(progress, "bench: %s rep %d/%d: %d events timed over %.2fs, %.0f ev/s, failed %d (%.1fs)\n",
				w.Name, i+1, p.reps, r.Events-r.WarmEvents, r.MeasuredSec, r.E2E["ingest_ev_per_s"], r.Failed, time.Since(start).Seconds())
			runs[k] = append(runs[k], r)
		}
	}
	for k, w := range p.workloads {
		wr := summarizeReps(w, runs[k])
		if p.traced(w) {
			tr, err := runWorkload(e, w, runOpts{seed: p.seed, seconds: p.seconds(w), setupReps: 1, traced: true})
			if err != nil {
				return nil, fmt.Errorf("%s traced: %w", w.Name, err)
			}
			tr.Layer["trace.overhead_pct"] = overheadPct(wr.EndToEnd["ingest_ev_per_s"].Median, tr.E2E["ingest_ev_per_s"])
			fmt.Fprintf(progress, "bench: %s traced: %.0f ev/s, overhead %.2f%%\n", w.Name, tr.E2E["ingest_ev_per_s"], tr.Layer["trace.overhead_pct"])
			wr.Traced = tr
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	var err error
	if rep.Layers, rep.LayerSamples, rep.Paths, err = ledgerAndPaths(e, p, progress); err != nil {
		return nil, err
	}
	return rep, nil
}

// overheadPct is the traced run's ingest rate shortfall against the
// untraced one.
func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return 100 * (untraced - traced) / untraced
}

// ledgerAndPaths runs the in-process layer ledger and both path traces
// and returns them as per-layer metrics.
func ledgerAndPaths(e env, p plan, progress io.Writer) (map[string]float64, map[string]int, []*pathTrace, error) {
	start := time.Now()
	l, err := runLayers(p.seed, p.layers, e.runDir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("layer ledger: %w", err)
	}
	fmt.Fprintf(progress, "bench: layer ledger: %d metrics (%.1fs)\n", len(l.metrics), time.Since(start).Seconds())
	s, err := newGenerator(p.seed).stream(p.pathEvents, layerBatch, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	durable, err := tracePathDurable(s, e.runDir)
	if err != nil {
		return nil, nil, nil, err
	}
	best, err := tracePathBestEffort(s)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, pt := range []*pathTrace{durable, best} {
		short := strings.TrimPrefix(pt.Path, "path.")
		l.metrics[pt.Path+"_ns"] = pt.NsPerEvent
		l.metrics[pt.Path+".durable_only_pct"] = pt.share(durableOnlyStages...)
		for _, st := range pt.Stages {
			if st.Name != rootName {
				l.metrics["path."+short+"."+st.Name+"_ns"] = st.NsPerEvent
			}
		}
		l.samples[pt.Path] = pt.Events
	}
	return l.metrics, l.samples, []*pathTrace{durable, best}, nil
}

// driverLine is the one JSON object the driver reads from the last line
// of standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMode runs one workload once. Untraced, it sets up three times (so
// setup_s is a median) and reports every end-to-end metric; traced, it
// runs the workload untraced and traced, the layer ledger and the path
// traces, and reports every per-layer metric.
func driverMode(e env, name string, seed uint64, seconds float64, traced bool) int {
	w, ok := findWorkload(name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", name))
	}
	if seconds <= 0 {
		seconds = float64(w.FullSeconds)
	}
	line := driverLine{Metrics: map[string]driverMetric{}}
	var results []*runResult
	if !traced {
		res, err := runWorkload(e, w, runOpts{seed: seed, seconds: seconds, setupReps: 3})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
		for _, d := range endToEnd {
			line.Metrics[d.Name] = driverMetric{Value: res.E2E[d.Name], Unit: d.Unit}
		}
	} else {
		base, err := runWorkload(e, w, runOpts{seed: seed, seconds: seconds, setupReps: 1})
		if err != nil {
			fatal(err)
		}
		tr, err := runWorkload(e, w, runOpts{seed: seed, seconds: seconds, setupReps: 1, traced: true})
		if err != nil {
			fatal(err)
		}
		results = append(results, base, tr)
		p := fullPlan(seed, 1)
		metrics, _, paths, err := ledgerAndPaths(e, p, os.Stderr)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(e.outDir(), 0o755); err != nil {
			fatal(err)
		}
		for _, pt := range paths {
			if err := pt.write(e.outDir()); err != nil {
				fatal(err)
			}
		}
		for k, v := range tr.Layer {
			metrics[k] = v
		}
		metrics["trace.overhead_pct"] = overheadPct(base.E2E["ingest_ev_per_s"], tr.E2E["ingest_ev_per_s"])
		for _, d := range perLayer {
			v, ok := metrics[d.Name]
			if !ok {
				fatal(fmt.Errorf("per-layer metric %s was not measured", d.Name))
			}
			line.Metrics[d.Name] = driverMetric{Value: v, Unit: d.Unit}
		}
	}
	for _, res := range results {
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, msg := range res.Errors {
			fmt.Fprintln(os.Stderr, "bench: verify:", msg)
		}
		fmt.Fprintf(os.Stderr, "bench: %s seed %d traced=%v: %d events timed over %.2fs, set-up %.2fs\n",
			w.Name, seed, res.Traced, res.Events-res.WarmEvents, res.MeasuredSec, res.E2E["setup_s"])
	}
	line.Correct = line.Failed == 0
	out, err := json.Marshal(line)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !line.Correct {
		return 1
	}
	return 0
}
