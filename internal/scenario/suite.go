package scenario

import (
	"embed"
	"fmt"
	"sort"
)

// The curated suite: five scenarios covering the arrival × mix × fault
// space the fixed three-app harness cannot reach. They are embedded so
// dlc-experiments and the scenario-smoke CI leg need no file paths, and
// they double as fuzz seeds.
//
//go:embed suite/*.json
var suiteFS embed.FS

// Suite parses and validates the embedded curated scenarios, sorted by
// name. It panics on an invalid embedded spec — that is a build defect,
// caught by the package tests.
func Suite() []*Spec {
	ents, err := suiteFS.ReadDir("suite")
	if err != nil {
		panic("scenario: embedded suite missing: " + err.Error())
	}
	var specs []*Spec
	for _, ent := range ents {
		data, err := suiteFS.ReadFile("suite/" + ent.Name())
		if err != nil {
			panic("scenario: " + err.Error())
		}
		s, err := Load(data)
		if err != nil {
			panic(fmt.Sprintf("scenario: embedded %s: %v", ent.Name(), err))
		}
		specs = append(specs, s)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}
