package lint

import (
	"go/ast"
	"sort"
)

// obsPkgPath is the module path of the telemetry package whose
// wall-clock constructor must stay out of the sim zone.
const obsPkgPath = "darshanldms/internal/obs"

// bannedObsFuncs are obs entry points that bind telemetry to the host's
// wall clock. Instrumenting sim-zone code with them fills latency
// histograms with host time, which silently breaks both the
// clock-agnostic contract and (worse) the bit-identical seeded outputs
// the telemetry plane promises not to perturb.
var bannedObsFuncs = map[string]string{
	"WallClock": "inject the engine's virtual clock instead (e.g. engine.Now or ctx.Now as an obs.Clock)",
}

var obsclockCheck = &Check{
	Name:  "obsclock",
	Doc:   "no obs.WallClock in the deterministic sim zone: telemetry there must run on virtual time",
	Zones: []Zone{ZoneSim},
	Run:   runObsclock,
}

func runObsclock(p *Pass) {
	names := make([]string, 0, len(bannedObsFuncs))
	for name := range bannedObsFuncs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, file := range p.Files {
		f := file
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := p.IsPkgCall(f, call, obsPkgPath, names...)
			if !ok {
				return true
			}
			p.Reportf(call.Pos(), bannedObsFuncs[name],
				"wall-clock telemetry obs.%s in deterministic sim zone", name)
			return true
		})
	}
}
