// Package lint implements dlc-lint, the project's determinism & safety
// static-analysis suite. The paper's value proposition is trustworthy
// run-time diagnosis: every Darshan event carries an absolute timestamp and
// the analysis pipeline must reproduce the same tables and figures from the
// same run. That contract is easy to break silently — a stray time.Now in
// the simulator, a package-level math/rand, an unsorted map iteration that
// leaks Go's randomized map order into an output table. dlc-lint encodes
// the contract as machine-checked rules over go/ast + go/types (stdlib
// only, no external analysis framework).
//
// The module is split into two zones:
//
//   - the deterministic sim zone (internal/sim, mpi, simfs, cluster,
//     connector, darshan, event, streams, dsos, stats, analysis, harness), where
//     wall-clock reads are banned outright, and
//   - the real zone (internal/ldms TCP/resilient transport, faults'
//     tcpproxy, replay, webui, cmd/*, examples), which talks to actual
//     sockets and clocks and is exempt from the walltime check.
//
// The one way to silence a finding is
//
//	//lint:allow <check> <reason>
//
// placed on the offending line or the line directly above it, or on a
// function's doc comment to cover the whole function. A directive that
// suppresses nothing is itself a finding (check name "allow"). A file can
// force its package's zone (used by fixtures and by real-zone files living
// in otherwise-deterministic packages) with
//
//	//lint:zone sim|real
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Zone classifies a package with respect to the determinism contract.
type Zone int

const (
	// ZoneReal marks packages that intentionally touch wall clocks and
	// real sockets. Only the zone-independent checks run there.
	ZoneReal Zone = iota
	// ZoneSim marks the deterministic simulation zone: all virtual-time
	// code where wall-clock reads corrupt measurements silently.
	ZoneSim
)

func (z Zone) String() string {
	if z == ZoneSim {
		return "sim"
	}
	return "real"
}

// simZonePaths are the module-relative package paths (and their subtrees)
// that form the deterministic sim zone. internal/darshanlog is deliberately
// absent (it is pure but timestamps it decodes are data, not clock reads);
// matching is per path segment so internal/darshan does not capture it by
// prefix accident.
var simZonePaths = []string{
	"internal/sim",
	"internal/mpi",
	"internal/simfs",
	"internal/cluster",
	"internal/connector",
	"internal/darshan",
	"internal/event",
	"internal/streams",
	"internal/dsos",
	"internal/stats",
	"internal/analysis",
	"internal/harness",
	"internal/topo",
	"internal/scenario",
}

// ZoneFor classifies a module-relative package path ("internal/sim",
// "cmd/ldmsd", ...). Matching is by whole path segment, so
// "internal/darshan" covers "internal/darshan" and "internal/darshan/x"
// but not "internal/darshanlog".
func ZoneFor(relPath string) Zone {
	for _, p := range simZonePaths {
		if relPath == p || strings.HasPrefix(relPath, p+"/") {
			return ZoneSim
		}
	}
	return ZoneReal
}

// Finding is one reported violation.
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
	Hint    string `json:"hint,omitempty"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Check, f.Message)
	if f.Hint != "" {
		s += " [fix: " + f.Hint + "]"
	}
	return s
}

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Dir     string // directory on disk
	RelPath string // module-relative import path ("internal/sim")
	Fset    *token.FileSet
	Files   []*ast.File
	Types   *types.Package // may be nil if type-checking failed hard
	Info    *types.Info    // always non-nil; possibly partial
	Zone    Zone
	// TypeErrors collects soft type-check errors (an unresolved import
	// fails the load instead). Checks degrade to syntactic heuristics when
	// type information is missing.
	TypeErrors []error
}

// Pass is the per-package context handed to each check's Run function.
type Pass struct {
	*Package
	check  string
	report func(Finding)
}

// Reportf records a finding anchored at pos.
func (p *Pass) Reportf(pos token.Pos, hint, format string, args ...any) {
	position := p.Fset.Position(pos)
	p.report(Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
		Hint:    hint,
	})
}

// TypeOf returns the type of e, or nil when type information is missing.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf resolves an identifier, or nil when type information is missing.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	if o := p.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// IsPkgCall reports whether call is pkgPath.<one of names>(...), resolving
// the qualifier through type info when available and falling back to the
// file's import table otherwise.
func (p *Pass) IsPkgCall(file *ast.File, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	matched := false
	for _, n := range names {
		if sel.Sel.Name == n {
			matched = true
			break
		}
	}
	if !matched {
		return "", false
	}
	if obj := p.ObjectOf(id); obj != nil {
		pn, ok := obj.(*types.PkgName)
		if !ok || pn.Imported().Path() != pkgPath {
			return "", false
		}
		return sel.Sel.Name, true
	}
	// Syntactic fallback: the qualifier must be the local name of an
	// import of pkgPath in this file.
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path != pkgPath {
			continue
		}
		name := localImportName(imp, path)
		if name == id.Name {
			return sel.Sel.Name, true
		}
	}
	return "", false
}

func localImportName(imp *ast.ImportSpec, path string) string {
	if imp.Name != nil {
		return imp.Name.Name
	}
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// Check is one analyzer in the suite.
type Check struct {
	Name string
	Doc  string
	// Zones restricts where the check runs; nil means all zones.
	Zones []Zone
	Run   func(*Pass)
}

func (c *Check) appliesTo(z Zone) bool {
	if len(c.Zones) == 0 {
		return true
	}
	for _, zz := range c.Zones {
		if zz == z {
			return true
		}
	}
	return false
}

// Checks returns the full suite in stable order: the seven original
// single-statement checks, then the CFG-backed lifecycle checks.
func Checks() []*Check {
	return []*Check{
		walltimeCheck,
		obsclockCheck,
		globalrandCheck,
		maporderCheck,
		lockheldCheck,
		puberrCheck,
		hotallocCheck,
		poolleakCheck,
		ackleakCheck,
		goroleakCheck,
		deferloopCheck,
	}
}

// CheckNames returns the names of every check in the suite.
func CheckNames() []string {
	var names []string
	for _, c := range Checks() {
		names = append(names, c.Name)
	}
	return names
}

// CheckTiming is the wall time one check spent across the whole run,
// surfaced by `dlc-lint -json` so a pathological fixture or a CFG blowup
// shows up as a number instead of a mysteriously slow CI job.
type CheckTiming struct {
	Check  string        `json:"check"`
	Elapse time.Duration `json:"elapsed_ns"`
}

// Run executes the given checks over pkg and returns surviving findings
// (suppressions applied), sorted by position then check name.
func Run(pkg *Package, checks []*Check) []Finding {
	f, _ := RunTimed(pkg, checks)
	return f
}

// RunTimed is Run plus per-check wall time, in suite order. After the
// checks, every //lint:allow directive that absorbed no finding of a
// selected check, or that names no check at all, is reported under the
// check name "allow": a suppression cannot outlive the finding it was
// written for.
func RunTimed(pkg *Package, checks []*Check) ([]Finding, []CheckTiming) {
	allows := collectAllows(pkg)
	var findings []Finding
	var timings []CheckTiming
	for _, c := range checks {
		if !c.appliesTo(pkg.Zone) {
			continue
		}
		pass := &Pass{Package: pkg, check: c.Name}
		pass.report = func(f Finding) {
			if allows.permits(f.File, f.Line, f.Check) {
				return
			}
			findings = append(findings, f)
		}
		start := time.Now()
		c.Run(pass)
		timings = append(timings, CheckTiming{Check: c.Name, Elapse: time.Since(start)})
	}
	findings = append(findings, allows.unused(pkg.Zone, checks)...)
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings, timings
}

// allowCheck is the check name unused directives are reported under.
const allowCheck = "allow"

// allow is one //lint:allow directive: it suppresses findings of check
// on lines from..to of the directive's file.
type allow struct {
	pos      token.Position // the directive itself
	check    string
	from, to int
	used     bool
}

type allowTable []*allow

// permits reports whether a directive covers the finding, and marks every
// directive that does as used.
func (t allowTable) permits(file string, line int, check string) bool {
	ok := false
	for _, a := range t {
		if a.pos.Filename == file && a.check == check && a.from <= line && line <= a.to {
			a.used = true
			ok = true
		}
	}
	return ok
}

// unused reports, as allow findings, each directive that names no check
// and each directive for a selected check that suppressed nothing, whether
// or not the check runs in zone.
func (t allowTable) unused(zone Zone, checks []*Check) []Finding {
	selected := map[string]*Check{}
	for _, c := range checks {
		selected[c.Name] = c
	}
	known := map[string]bool{}
	for _, name := range CheckNames() {
		known[name] = true
	}
	var out []Finding
	for _, a := range t {
		f := Finding{File: a.pos.Filename, Line: a.pos.Line, Col: a.pos.Column, Check: allowCheck, Hint: "delete the directive"}
		c := selected[a.check]
		switch {
		case !known[a.check]:
			f.Message = fmt.Sprintf("//lint:allow names no known check %q", a.check)
			f.Hint = "name one of the checks dlc-lint -list shows"
		case c == nil || a.used:
			continue
		case !c.appliesTo(zone):
			f.Message = fmt.Sprintf("//lint:allow %s suppresses nothing: %s does not run in the %s zone", a.check, a.check, zone)
		default:
			f.Message = fmt.Sprintf("//lint:allow %s suppresses nothing", a.check)
		}
		out = append(out, f)
	}
	return out
}

const (
	allowPrefix = "//lint:allow "
	zonePrefix  = "//lint:zone "
)

// collectAllows scans every comment in the package for //lint:allow
// directives. A directive covers its own line and the line directly below
// it, so both trailing and leading placements work:
//
//	time.Sleep(d) //lint:allow walltime warm-up outside measurement
//
//	//lint:allow puberr best-effort fan-out, drops are counted
//	fwd.Publish(m)
//
// On a function's doc comment it covers the whole function, for a body
// that is deliberately exempt throughout (the sprintf-encoder ablation,
// whose allocations are the point of the experiment).
//
// A directive without a reason is ignored (the reason is part of the
// contract: reviewers should see why the rule does not apply).
func collectAllows(pkg *Package) allowTable {
	var t allowTable
	for _, file := range pkg.Files {
		funcEnd := map[*ast.CommentGroup]token.Pos{}
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				funcEnd[fd.Doc] = fd.End()
			}
		}
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					continue // no reason given: directive is inert
				}
				pos := pkg.Fset.Position(c.Pos())
				a := &allow{pos: pos, check: fields[0], from: pos.Line, to: pos.Line + 1}
				if end, ok := funcEnd[cg]; ok {
					a.to = pkg.Fset.Position(end).Line
				}
				t = append(t, a)
			}
		}
	}
	return t
}

// zoneDirective scans a package's comments for a //lint:zone directive and
// returns the forced zone, if any.
func zoneDirective(files []*ast.File) (Zone, bool) {
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, zonePrefix) {
					continue
				}
				switch strings.TrimSpace(strings.TrimPrefix(c.Text, zonePrefix)) {
				case "sim":
					return ZoneSim, true
				case "real":
					return ZoneReal, true
				}
			}
		}
	}
	return ZoneReal, false
}
