// Command benchgate is the CI perf gate. It compares the metrics of one
// `go run ./bench -smoke` that do not move with the host — every layer's
// allocs/event and bytes/event, and every workload's disk bytes/event with
// its per-daemon split — against the committed ledger, in both directions:
// a metric above its entry is a regression, one below it is a stale
// entry, one missing from either side is an error.
// The ledger changes only through -write (`make bench-ledger`).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	reportPath = "bench/out/bench.json"
	ledgerPath = "ci/bench.ledger"

	// The two allowances, from twenty smoke runs (ten of this tree, ten of
	// its parent; go1.24, seed 42, 2 vCPUs): 38 of the 46 gated metrics
	// repeated to every digit, and the eight that moved had the same range
	// in both sets of ten.
	//
	// allocsAllowance is absolute, in allocs/event. Five layers moved, each
	// with a goroutine or a GC-timed pool refill behind it:
	// ldms.tcp_batch_allocs 0.0591..0.0619 (spread 0.0028),
	// ldms.tcp_single_allocs 0.0016, jsonmsg.parse_allocs 0.0006,
	// ldms.uplink_drain_allocs 0.0005, ldms.dsos_store_allocs 0.0003.
	// 3.5x the widest; one allocation per 64-record batch is 0.0156.
	allocsAllowance = 0.01
	// bytesAllowance is relative to the entry. Only durable-paced moved,
	// where batch boundaries depend on timing: ldmsd.stream 0.047 %
	// (154.2114..154.2831), dsosd.stream 0.040 %, disk_bytes_per_event
	// 0.022 %. 4.3x the widest; BENCHMARK.json's own bound is 1 %.
	bytesAllowance = 0.002
)

// fixed is a metric value written with four decimals, so a regenerated
// ledger differs from the old one only where a metric moved.
type fixed float64

func (f fixed) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat(nil, float64(f), 'f', 4, 64), nil
}

type ledger struct {
	// Go is the toolchain minor that wrote the entries. Escape analysis
	// differs between minors, so only that one enforces them.
	Go      string           `json:"go"`
	Metrics map[string]fixed `json:"metrics"`
}

// report is what the gate reads of bench/out/bench.json.
type report struct {
	Provenance struct {
		GoVersion string `json:"go_version"`
	} `json:"provenance"`
	Layers    map[string]float64 `json:"layers"`
	Workloads []struct {
		Name       string             `json:"name"`
		EndToEnd   map[string]summary `json:"end_to_end"`
		Diagnostic map[string]summary `json:"diagnostic"`
	} `json:"workloads"`
}

type summary struct {
	Median float64 `json:"median"`
}

// gated picks the gated metrics out of a report.
func gated(rep *report) ledger {
	// "go1.24.3" -> "go1.24"
	minor := rep.Provenance.GoVersion
	if strings.Count(minor, ".") == 2 {
		minor = minor[:strings.LastIndexByte(minor, '.')]
	}
	l := ledger{Go: minor, Metrics: map[string]fixed{}}
	for name, v := range rep.Layers {
		if strings.HasSuffix(name, "_allocs") || strings.HasSuffix(name, "bytes_per_event") {
			l.Metrics["layers."+name] = fixed(v)
		}
	}
	for _, w := range rep.Workloads {
		for _, group := range []map[string]summary{w.EndToEnd, w.Diagnostic} {
			for name, s := range group {
				if strings.HasSuffix(name, "bytes_per_event") {
					l.Metrics[w.Name+"."+name] = fixed(s.Median)
				}
			}
		}
	}
	return l
}

// check prints, in name order, every metric that is off its entry and
// fails if any is. On another Go minor than the ledger's it prints every
// metric and never fails.
func check(w io.Writer, run, led ledger) error {
	enforced := run.Go == led.Go
	names := make([]string, 0, len(led.Metrics))
	for name := range led.Metrics {
		names = append(names, name)
	}
	for name := range run.Metrics {
		if _, ok := led.Metrics[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	off := 0
	for _, name := range names {
		got, inRun := run.Metrics[name]
		want, inLedger := led.Metrics[name]
		allow := fixed(allocsAllowance)
		if !strings.HasSuffix(name, "_allocs") {
			allow = bytesAllowance * want
		}
		verdict := "ok"
		switch {
		case !inLedger || !inRun:
			verdict = fmt.Sprintf("MISSING (in bench.json: %v, in the ledger: %v)", inRun, inLedger)
		case got > want+allow:
			verdict = "REGRESSION: worse than its entry"
		case got < want-allow:
			verdict = "STALE: better than its entry"
		}
		if verdict != "ok" {
			off++
		}
		if verdict != "ok" || !enforced {
			fmt.Fprintf(w, "%-52s run %10.4f  ledger %10.4f  allowance ±%.4f  %s\n", name, got, want, allow, verdict)
		}
	}
	fmt.Fprintf(w, "bench ledger: %d of %d metrics off their entries (±%g allocs/event, ±%g%% bytes/event); enforced on %s, the toolchain that wrote it; this is %s\n",
		off, len(names), allocsAllowance, bytesAllowance*100, led.Go, run.Go)
	if enforced && off > 0 {
		return fmt.Errorf("%d metrics off the ledger: fix the regression, or record a deliberate change with `make bench-ledger`", off)
	}
	return nil
}

// gate checks the ledger file against the report file, or with write
// regenerates it.
func gate(w io.Writer, repPath, ledPath string, write bool) error {
	var rep report
	if err := readJSON(repPath, &rep); err != nil {
		return err
	}
	run := gated(&rep)
	if write {
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "writing %s: %d metrics, %s\n", ledPath, len(run.Metrics), run.Go)
		return os.WriteFile(ledPath, append(data, '\n'), 0o644)
	}
	var led ledger
	if err := readJSON(ledPath, &led); err != nil {
		return err
	}
	return check(w, run, led)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func main() {
	write := flag.Bool("write", false, "regenerate "+ledgerPath+" from "+reportPath+" instead of checking against it")
	flag.Parse()
	if err := gate(os.Stdout, reportPath, ledgerPath, *write); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
