package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"darshanldms/internal/analysis"
)

// provenance records where and how a result was produced: the host
// record results/BENCH_pipeline.json lacks.
type provenance struct {
	Commit      string `json:"commit"`
	Seed        uint64 `json:"seed"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	Kernel      string `json:"kernel"`
	RunDir      string `json:"run_dir"`
	RunDirFS    string `json:"run_dir_filesystem"`
	FsyncPolicy string `json:"fsync_policy"`
	Reps        int    `json:"reps"`
}

func newProvenance(e env, seed uint64, reps int) provenance {
	p := provenance{
		Commit: "unknown", Seed: seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Kernel: "unknown", RunDir: e.runDir, RunDirFS: filesystemOf(e.runDir),
		// Neither daemon ever calls FileWAL.Sync, so no run pays for an
		// fsync; stated so both sides of a comparison are known to agree.
		FsyncPolicy: "none", Reps: reps,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		p.Commit = strings.TrimSpace(string(out))
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		p.Kernel = strings.TrimSpace(string(rel))
	}
	return p
}

// filesystemOf names the filesystem type and device holding dir, from the
// longest mount point in /proc/mounts that prefixes it.
func filesystemOf(dir string) string {
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, fs = mp, f[2]+" on "+f[0]
		}
	}
	return fs
}

// metricSummary is one metric over the repetitions of one workload.
type metricSummary struct {
	Unit   string  `json:"unit"`
	Bound  float64 `json:"bound,omitempty"`
	Better string  `json:"better"`
	summary
}

// workloadReport is one workload's part of the full report.
type workloadReport struct {
	Name        string                   `json:"name"`
	Why         string                   `json:"why"`
	DaemonFlags []string                 `json:"daemon_flags"`
	Attempted   int                      `json:"ops_attempted"`
	Failed      int                      `json:"ops_failed"`
	TimedSec    float64                  `json:"timed_s"` // median length of the reps' timed intervals
	EndToEnd    map[string]metricSummary `json:"end_to_end"`
	Diagnostic  map[string]summary       `json:"diagnostic"`
	Reps        []*runResult             `json:"reps"`
	Traced      *runResult               `json:"traced,omitempty"`
}

// report is bench/out/bench.json.
type report struct {
	Provenance   provenance         `json:"provenance"`
	BuildSeconds float64            `json:"build_s"`
	Workloads    []*workloadReport  `json:"workloads"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	LayerSamples map[string]int     `json:"layer_samples,omitempty"`
	Paths        []*pathTrace       `json:"paths,omitempty"`
}

// summarizeReps folds a workload's repetitions into its report.
func summarizeReps(w workload, reps []*runResult) *workloadReport {
	wr := &workloadReport{Name: w.Name, Why: w.Why, Reps: reps, EndToEnd: map[string]metricSummary{}, Diagnostic: map[string]summary{}}
	var timed []float64
	for _, r := range reps {
		wr.Attempted += r.Attempted
		wr.Failed += r.Failed
		wr.DaemonFlags = r.DaemonFlags
		timed = append(timed, r.MeasuredSec)
	}
	wr.TimedSec = median(timed)
	collect := func(pick func(*runResult) map[string]float64, name string) []float64 {
		var v []float64
		for _, r := range reps {
			if x, ok := pick(r)[name]; ok {
				v = append(v, x)
			}
		}
		return v
	}
	for _, d := range endToEnd {
		v := collect(func(r *runResult) map[string]float64 { return r.E2E }, d.Name)
		wr.EndToEnd[d.Name] = metricSummary{Unit: d.Unit, Bound: d.Bound, Better: d.Better, summary: summarize(v)}
	}
	for _, d := range perLayer {
		if v := collect(func(r *runResult) map[string]float64 { return r.Layer }, d.Name); len(v) > 0 {
			wr.Diagnostic[d.Name] = summarize(v)
		}
	}
	return wr
}

// print writes every metric by name with its unit.
func (rep *report) print(w io.Writer) {
	p := rep.Provenance
	fmt.Fprintf(w, "commit %s  seed %d  cpus %d  GOMAXPROCS %d  %s  kernel %s\n", p.Commit, p.Seed, p.NumCPU, p.GOMAXPROCS, p.GoVersion, p.Kernel)
	fmt.Fprintf(w, "run dir %s (%s)  fsync %s  reps %d  build_s %.2f\n", p.RunDir, p.RunDirFS, p.FsyncPolicy, p.Reps, rep.BuildSeconds)
	for _, wr := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wr.Name, wr.Why)
		for _, fl := range wr.DaemonFlags {
			fmt.Fprintf(w, "   %s\n", fl)
		}
		fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d\n", wr.Attempted, wr.Failed)
		fmt.Fprintf(w, "   timed interval %.2f s (median of the reps)\n", wr.TimedSec)
		for _, r := range wr.Reps {
			for _, e := range r.Errors {
				fmt.Fprintf(w, "   FAILED: %s\n", e)
			}
		}
		fmt.Fprintf(w, "   %-34s %-6s %14s %14s %14s  %s\n", "end-to-end metric", "unit", "median", "min", "max", "bound")
		for _, d := range endToEnd {
			m := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "   %-34s %-6s %14.4f %14.4f %14.4f  %.0f%%\n", d.Name, m.Unit, m.Median, m.Min, m.Max, 100*m.Bound)
		}
		if len(wr.Reps) > 0 {
			last := wr.Reps[len(wr.Reps)-1]
			fmt.Fprintf(w, "   latency samples (last rep; tail = highest percentile with >= 10 samples beyond it)\n")
			for _, name := range analysis.SortedKeys(last.Latency) {
				l := last.Latency[name]
				if l.N == 0 {
					continue // a shape this workload never queries
				}
				tail := fmt.Sprintf("p%g %.4f", l.TailPct, l.Tail)
				if !l.TailOK {
					tail = "too few samples for any percentile"
				} else if l.TailPct == tailPercentiles[0] {
					tail = "no higher percentile supported"
				}
				fmt.Fprintf(w, "     %-20s n=%-6d p50 %12.4f   %s\n", name, l.N, l.P50, tail)
			}
			fmt.Fprintf(w, "   other counts (last rep): %s\n", sampleLine(last.Samples))
		}
		fmt.Fprintf(w, "   diagnostic (median of the reps)\n")
		for _, d := range perLayer {
			if m, ok := wr.Diagnostic[d.Name]; ok {
				fmt.Fprintf(w, "     %-36s %-6s %14.4f\n", d.Name, d.Unit, m.Median)
			}
		}
		if wr.Traced != nil {
			fmt.Fprintf(w, "   traced pass (ldmsd -http, /metrics at 20 Hz, %d scrapes)\n", wr.Traced.Samples["scrapes"])
			for _, name := range []string{"ldmsd.uplink_lag_max_msgs", "dsosd.ingest_lag_max_msgs", "dsosd.dedup_absorbed", "trace.overhead_pct"} {
				d, _ := findMetric(perLayer, name)
				fmt.Fprintf(w, "     %-36s %-6s %14.4f\n", name, d.Unit, wr.Traced.Layer[name])
			}
		}
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "\n== layer ledger (in-process, public calls timed from outside)\n")
		fmt.Fprintf(w, "   %-36s %-6s %14s\n", "metric", "unit", "value")
		for _, d := range perLayer {
			if v, ok := rep.Layers[d.Name]; ok {
				fmt.Fprintf(w, "   %-36s %-6s %14.4f\n", d.Name, d.Unit, v)
			}
		}
		fmt.Fprintf(w, "   samples: %s\n", sampleLine(rep.LayerSamples))
	}
	for _, pt := range rep.Paths {
		fmt.Fprintf(w, "\n== %s: %d events in %d batches, %.0f ns/event; durable-only stages %.1f%%\n",
			pt.Path, pt.Events, pt.Batches, pt.NsPerEvent, pt.share(durableOnlyStages...))
		for _, st := range pt.Stages {
			fmt.Fprintf(w, "   %-24s %10.0f ns/event self %6.1f%%  (%d spans, %d calls)\n", st.Name, st.NsPerEvent, st.SharePct, st.Spans, st.Calls)
		}
	}
}

func sampleLine(samples map[string]int) string {
	parts := make([]string, 0, len(samples))
	for _, k := range analysis.SortedKeys(samples) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, samples[k]))
	}
	return strings.Join(parts, " ")
}

// write stores the report, without the bulky per-batch spans (those go to
// trace-<path>.json beside it).
func (rep *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	slim := *rep
	slim.Paths = nil
	for _, pt := range rep.Paths {
		if err := pt.write(dir); err != nil {
			return err
		}
		c := *pt
		c.Spans = nil
		slim.Paths = append(slim.Paths, &c)
	}
	data, err := json.MarshalIndent(&slim, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "bench.json"), append(data, '\n'), 0o644)
}

// compareReports prints, for every end-to-end metric of every workload
// both files hold, how much worse b's median is than a's, as a share of
// a's, against the metric's bound. It returns how many exceed it.
func compareReports(w io.Writer, pathA, pathB string) (int, error) {
	load := func(path string) (*report, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	a, err := load(pathA)
	if err != nil {
		return 0, err
	}
	b, err := load(pathB)
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "a: %s  commit %s seed %d\nb: %s  commit %s seed %d\n", pathA, a.Provenance.Commit, a.Provenance.Seed, pathB, b.Provenance.Commit, b.Provenance.Seed)
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "a median", "b median", "worse by", "bound", "verdict")
	over := 0
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, okA := wa.EndToEnd[d.Name]
			mb, okB := wb.EndToEnd[d.Name]
			if !okA || !okB || ma.Median == 0 {
				continue
			}
			worse := worseBy(d, ma.Median, mb.Median)
			verdict := "ok"
			if worse > d.Bound {
				verdict = "OVER BOUND"
				over++
			}
			fmt.Fprintf(w, "%-20s %-22s %14.4f %14.4f %+8.2f%% %6.0f%%  %s\n", wa.Name, d.Name, ma.Median, mb.Median, 100*worse, 100*d.Bound, verdict)
		}
	}
	return over, nil
}

// worseBy is how much worse b is than a as a share of a: positive when b
// moved in the metric's bad direction.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}
