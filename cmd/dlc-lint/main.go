// dlc-lint is the project's determinism & safety static-analysis driver.
// It loads the packages its arguments name, runs the check suite from
// internal/lint, and reports findings with file:line, check name and a fix
// hint.
//
// Usage:
//
//	dlc-lint [flags] [package pattern ...]
//
//	dlc-lint ./...                      # whole module, text output
//	dlc-lint ./internal/sim/...         # one subtree
//	dlc-lint -json ./...                # machine-readable report envelope
//	dlc-lint -checks walltime,puberr .  # subset of checks
//	dlc-lint -list                      # describe the suite
//	dlc-lint -baseline ci/lint.baseline ./...        # suppress known debt
//	dlc-lint -write-baseline ci/lint.baseline ./...  # record current debt
//
// The arguments (default ./...) are `go list` patterns, resolved from the
// working directory. Test files are never analyzed: tests legitimately
// sleep, poll wall clocks and drop errors. Loading runs `go list -export`,
// which compiles the named packages and their dependencies, so the first
// run on a cold build cache costs a `go build`.
//
// Baseline entries are file paths relative to the working directory, so
// run -baseline and -write-baseline from the module root.
//
// With -baseline, recorded findings are suppressed, new findings still
// fail, and stale entries (debt that was actually paid) fail the run
// until the file is regenerated with -write-baseline — the ledger only
// shrinks deliberately.
//
// Exit status: 0 when clean, 1 when findings were reported (or the
// baseline is stale), 2 on usage or load errors: a pattern that matches
// no package, a package that does not compile, or export data this
// program cannot read (a go on PATH from another release than the one
// that built it). CI gates on this via `make lint` / `make check`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"darshanldms/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit a JSON report envelope (findings, suppression counts, per-check timing)")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	verbose := flag.Bool("v", false, "report soft type-check errors to stderr")
	baselinePath := flag.String("baseline", "", "suppress findings recorded in this baseline file; stale entries fail the run")
	writeBaseline := flag.String("write-baseline", "", "record current findings into this baseline file and exit")
	flag.Parse()

	if *list {
		for _, c := range lint.Checks() {
			zones := "all zones"
			if len(c.Zones) == 1 {
				zones = c.Zones[0].String() + " zone only"
			}
			fmt.Printf("%-12s %s (%s)\n", c.Name, c.Doc, zones)
		}
		return
	}

	checks, err := selectChecks(*checksFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlc-lint:", err)
		os.Exit(2)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}

	pkgs, err := lint.Load(".", args...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlc-lint:", err)
		os.Exit(2)
	}

	var findings []lint.Finding
	timing := map[string]time.Duration{}
	for _, pkg := range pkgs {
		if *verbose {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "dlc-lint: %s: type-check: %v\n", pkg.RelPath, terr)
			}
		}
		fs, ts := lint.RunTimed(pkg, checks)
		findings = append(findings, fs...)
		for _, ct := range ts {
			timing[ct.Check] += ct.Elapse
		}
	}
	var timings []lint.CheckTiming
	for _, c := range checks {
		timings = append(timings, lint.CheckTiming{Check: c.Name, Elapse: timing[c.Name]})
	}

	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlc-lint:", err)
		os.Exit(2)
	}

	if *writeBaseline != "" {
		b := lint.NewBaseline(root, findings)
		if err := b.Write(*writeBaseline); err != nil {
			fmt.Fprintln(os.Stderr, "dlc-lint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "dlc-lint: recorded %d finding(s) across %d entrie(s) into %s\n",
			len(findings), len(b.Entries), *writeBaseline)
		return
	}

	suppressed := 0
	var stale []lint.BaselineEntry
	if *baselinePath != "" {
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dlc-lint:", err)
			os.Exit(2)
		}
		findings, stale, suppressed = b.Apply(root, findings)
	}

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		if stale == nil {
			stale = []lint.BaselineEntry{}
		}
		report := struct {
			Findings      []lint.Finding       `json:"findings"`
			Suppressed    int                  `json:"suppressed"`
			StaleBaseline []lint.BaselineEntry `json:"stale_baseline"`
			Checks        []lint.CheckTiming   `json:"checks"`
		}{findings, suppressed, stale, timings}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "dlc-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "dlc-lint: %d finding(s)\n", len(findings))
		}
		if suppressed > 0 {
			fmt.Fprintf(os.Stderr, "dlc-lint: %d finding(s) suppressed by baseline\n", suppressed)
		}
		for _, e := range stale {
			fmt.Fprintf(os.Stderr, "dlc-lint: stale baseline entry %s %s (count %d): debt was paid, regenerate with -write-baseline\n",
				e.File, e.Check, e.Count)
		}
	}
	if len(findings) > 0 || len(stale) > 0 {
		os.Exit(1)
	}
}

func selectChecks(names string) ([]*lint.Check, error) {
	all := lint.Checks()
	if names == "" {
		return all, nil
	}
	byName := map[string]*lint.Check{}
	for _, c := range all {
		byName[c.Name] = c
	}
	var out []*lint.Check
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown check %q (have %s)", n, strings.Join(lint.CheckNames(), ", "))
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no checks selected")
	}
	return out, nil
}
