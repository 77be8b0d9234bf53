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
//
// The arguments (default ./...) are `go list` patterns, resolved from the
// working directory. Test files are never analyzed: tests legitimately
// sleep, poll wall clocks and drop errors. Loading runs `go list -export`,
// which compiles the named packages and their dependencies, so the first
// run on a cold build cache costs a `go build`.
//
// A finding is silenced only by a //lint:allow <check> <reason> directive
// next to it (or on its function's doc comment). A directive for a
// selected check that suppresses nothing, and one that names no check,
// are reported as "allow" findings.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors: a pattern that matches no package, a package that does not
// compile, or export data this program cannot read (a go on PATH from
// another release than the one that built it). CI gates on this via
// `make lint-json`, `make lint` and `make check`.
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
	jsonOut := flag.Bool("json", false, "emit a JSON report envelope (findings, per-check timing)")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list the available checks and exit")
	verbose := flag.Bool("v", false, "report soft type-check errors to stderr")
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

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		report := struct {
			Findings []lint.Finding     `json:"findings"`
			Checks   []lint.CheckTiming `json:"checks"`
		}{findings, timings}
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
	}
	if len(findings) > 0 {
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
